package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"wormmesh/internal/core"
	"wormmesh/internal/routing"
	"wormmesh/internal/topology"
	"wormmesh/internal/traffic"
)

// countingSource counts the draws the engine takes from its RNG. It
// implements only rand.Source, so every math/rand method the engine
// could call reaches it through Int63.
type countingSource struct {
	src   rand.Source
	draws int64
}

func (c *countingSource) Int63() int64 { c.draws++; return c.src.Int63() }
func (c *countingSource) Seed(s int64) { c.src.Seed(s) }

// countingAlg counts Candidates calls: the routing-phase work the
// blocked-header skip saves.
type countingAlg struct {
	core.Algorithm
	calls int64
}

func (a *countingAlg) Candidates(m *core.Message, node topology.NodeID, out *core.CandidateSet) {
	a.calls++
	a.Algorithm.Candidates(m, node, out)
}

// driveCell runs p by hand the way Runner.RunWithFaults does — same
// Config normalization, RNG seeds and per-cycle order — but with the
// engine's RNG source and algorithm supplied by the caller and each()
// called after every Step.
func driveCell(t *testing.T, p Params, src rand.Source, wrap func(core.Algorithm) core.Algorithm, each func(*core.Network)) core.Stats {
	t.Helper()
	f, err := BuildFaults(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config
	if cfg.MaxHops == 0 {
		cfg.MaxHops = int32(16 * f.Topo.Diameter())
	}
	alg, err := routing.New(p.Algorithm, f, cfg.NumVCs)
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		alg = wrap(alg)
	}
	src.Seed(p.Seed)
	net, err := core.NewNetwork(f.Topo, f, alg, cfg, rand.New(src))
	if err != nil {
		t.Fatal(err)
	}
	pat, err := traffic.NewPattern(p.Pattern, f)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := traffic.NewSource(f, pat, p.Rate, p.MessageLength, rand.New(rand.NewSource(p.Seed+0x9e3779b9)))
	if err != nil {
		t.Fatal(err)
	}
	gen.Alloc = net.AcquireMessage
	cycle := int64(0)
	run := func(until int64) {
		for ; cycle < until; cycle++ {
			gen.Tick(cycle, net.Offer)
			net.Step()
			if each != nil {
				each(net)
			}
		}
	}
	run(p.WarmupCycles)
	net.ResetStats()
	run(p.WarmupCycles + p.MeasureCycles)
	st := net.Snapshot()
	st.EffectiveWarmup = p.WarmupCycles
	return st
}

// TestValidateEveryCycle runs saturated, faulted cells with
// Network.Validate after every cycle, so the incremental ready-sender
// and pending-header sets, their back-indices and the feeder pointers
// are re-derived from scratch at every step — through stall kills, a
// global-watchdog kill, kill-and-reinject, the torus, a wider ejection
// port, shallow and deep buffers, and every selection policy.
func TestValidateEveryCycle(t *testing.T) {
	saturated := func() Params {
		p := DefaultParams()
		p.Algorithm, p.Faults, p.Rate = "Duato-Nbc", 10, 0.01
		p.MessageLength = 24
		p.WarmupCycles, p.MeasureCycles = 300, 900
		p.FaultSeed, p.Seed = 3, 5
		return p
	}
	cells := []struct {
		name string
		p    func() Params
		// check asserts the cell exercised what it is named for.
		check func(core.Stats) bool
	}{
		{"stall-kills", func() Params {
			p := saturated()
			p.Config.MessageStallCycles, p.Config.StallScanInterval = 120, 5
			return p
		}, func(s core.Stats) bool { return s.KilledStall > 0 }},
		{"global-watchdog", func() Params {
			p := DefaultParams()
			p.Width, p.Height = 6, 6
			p.Algorithm, p.Rate, p.MessageLength = "Minimal-Adaptive", 0.05, 8
			p.Config.NumVCs, p.Config.DeadlockCycles = 5, 50
			p.WarmupCycles, p.MeasureCycles = 0, 3000
			return p
		}, func(s core.Stats) bool { return s.KilledGlobal > 0 }},
		{"torus", func() Params {
			p := saturated()
			p.Topology, p.Width, p.Height, p.Faults = "torus", 8, 8, 4
			return p
		}, nil},
		{"eject-bw-2", func() Params {
			p := saturated()
			p.Config.EjectBW = 2
			return p
		}, nil},
		{"buf-depth-1", func() Params {
			p := saturated()
			p.Config.BufDepth = 1
			return p
		}, nil},
		{"buf-depth-4", func() Params {
			p := saturated()
			p.Config.BufDepth = 4
			return p
		}, nil},
		{"random-dir", func() Params {
			p := saturated()
			p.Algorithm = "PHop"
			p.Config.Selection = core.SelectRandomDir
			return p
		}, nil},
		{"lowest-vc", func() Params {
			p := saturated()
			p.Algorithm = "Fully-Adaptive"
			p.Config.Selection = core.SelectLowestVC
			return p
		}, nil},
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			p := c.p()
			st := driveCell(t, p, rand.NewSource(0), nil, func(net *core.Network) {
				if err := net.Validate(); err != nil {
					t.Fatalf("cycle %d: %v", net.Cycle(), err)
				}
			})
			if st.Delivered == 0 {
				t.Fatal("no deliveries")
			}
			if c.check != nil && !c.check(st) {
				t.Errorf("cell did not exercise its case: killed stall=%d global=%d",
					st.KilledStall, st.KilledGlobal)
			}
		})
	}
}

// TestEngineWorkCounts pins the engine's deterministic work on four
// cells: the RNG draws, which every engine revision must reproduce
// (they equal the counts recorded before the incremental work sets
// landed), and the Candidates calls, which the blocked-header skip
// cut. The hand-driven run is checked against Runner.Run first, so
// the counts belong to the real cell.
func TestEngineWorkCounts(t *testing.T) {
	cells := []struct {
		name       string
		alg        string
		faults     int
		rate       float64
		draws      int64
		candidates int64
	}{
		{"Duato-Nbc/10-faults", "Duato-Nbc", 10, 0.01, 2024877, 7237},
		{"PHop/10-faults", "PHop", 10, 0.01, 2054768, 11504},
		{"Duato/fault-free", "Duato", 0, 0.01, 2301798, 6492},
		{"Duato/fig2-light", "Duato", 0, 0.0009, 1451536, 2560},
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			p := DefaultParams()
			p.Algorithm, p.Faults, p.Rate = c.alg, c.faults, c.rate
			p.WarmupCycles, p.MeasureCycles = 1300, 2700
			p.FaultSeed, p.Seed = 8, 1001
			want, err := NewRunner().Run(p)
			if err != nil {
				t.Fatal(err)
			}
			src := &countingSource{src: rand.NewSource(0)}
			var alg *countingAlg
			st := driveCell(t, p, src, func(a core.Algorithm) core.Algorithm {
				alg = &countingAlg{Algorithm: a}
				return alg
			}, nil)
			if !reflect.DeepEqual(st, want.Stats) {
				t.Fatal("hand-driven Stats differ from Runner.Run")
			}
			t.Logf("%s: draws=%d candidates=%d", c.name, src.draws, alg.calls)
			if src.draws != c.draws {
				t.Errorf("engine RNG draws = %d, want %d", src.draws, c.draws)
			}
			if alg.calls != c.candidates {
				t.Errorf("Candidates calls = %d, want %d", alg.calls, c.candidates)
			}
		})
	}
}
