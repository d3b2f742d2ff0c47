package sim

import (
	"testing"

	"wormmesh/internal/core"
	"wormmesh/internal/fault"
	"wormmesh/internal/topology"
)

// TestWorklistMatchesFullScan locks in the activity-driven engine's
// equivalence contract (core/worklist.go): stepping through the
// dirty-router worklists — including the quiescent-cycle short-circuit
// — must produce Stats bit-identical to the original full-mesh scans
// (core.DebugFullScan), across the load regimes the paper sweeps:
//
//   - low load (most cycles quiescent, the short-circuit dominates),
//   - the latency knee (mixed idle/busy routers every cycle),
//   - near saturation (the worklist is almost the whole mesh, stressing
//     membership maintenance rather than skipping).
//
// The fault scenarios mirror the memoization equivalence tests: none
// (fault-free), an interior block (closed f-rings), and a boundary
// chain (open f-chain), so ring traffic, misrouting and watchdog kills
// all appear in at least one cell.
func TestWorklistMatchesFullScan(t *testing.T) {
	mesh := topology.New(10, 10)
	scenarios := []struct {
		name    string
		pattern string // canned fault pattern; "" = fault-free
	}{
		{"fault-free", ""},
		{"interior-block", "center-block"},
		{"boundary-chain", "boundary-chain"},
	}
	rates := []struct {
		name string
		rate float64
	}{
		{"low", 0.001},       // 0.032 flits/node/cycle offered: mostly idle
		{"knee", 0.008},      // around the latency knee for 32-flit messages
		{"saturation", 0.02}, // 0.64 flits/node/cycle: past saturation
	}
	for _, sc := range scenarios {
		var nodes []topology.NodeID
		if sc.pattern != "" {
			var err error
			nodes, err = fault.NamedPattern(sc.pattern, mesh)
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, rt := range rates {
			// The workers-0 leaf names the serial engine (EngineWorkers 0),
			// keeping case names stable for tooling that tracks them.
			t.Run(sc.name+"/"+rt.name+"/workers-0", func(t *testing.T) {
				p := DefaultParams()
				p.Algorithm = "Duato-Nbc"
				p.Rate = rt.rate
				p.MessageLength = 32
				p.WarmupCycles = 300
				p.MeasureCycles = 1200
				p.Seed = 90125
				if nodes != nil {
					p.FaultNodes = nodes
				}
				run := func(fullScan bool) (Result, error) {
					core.DebugFullScan = fullScan
					defer func() { core.DebugFullScan = false }()
					return Run(p)
				}
				worklist, err := run(false)
				if err != nil {
					t.Fatal(err)
				}
				scanned, err := run(true)
				if err != nil {
					t.Fatal(err)
				}
				if worklist.Stats.Delivered == 0 {
					t.Fatal("scenario delivered nothing; equivalence would be vacuous")
				}
				if !statsEqual(worklist.Stats, scanned.Stats) {
					t.Errorf("worklist run diverged from full-scan run:\n  worklist: %+v\n  fullscan: %+v",
						worklist.Stats, scanned.Stats)
				}
			})
		}
	}
}
