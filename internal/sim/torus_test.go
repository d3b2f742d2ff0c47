package sim

import (
	"strings"
	"testing"

	"wormmesh/internal/routing"
	"wormmesh/internal/topology"
)

// torusParams is the golden scenario re-based onto the torus backend.
func torusParams() Params {
	p := goldenParams()
	p.Topology = "torus"
	return p
}

// TestTorusSaturatingFaultFree drives every torus-enabled algorithm
// well past the torus's bisection capacity on a fault-free 10×10 torus
// and requires zero recovery kills: the dateline and hop-class
// deadlock-freedom arguments must hold under sustained saturation, not
// just at trickle loads.
func TestTorusSaturatingFaultFree(t *testing.T) {
	torus := topology.NewTorus(10, 10)
	names := routing.TorusAlgorithmNames(torus)
	if len(names) == 0 {
		t.Fatal("no torus-enabled algorithms")
	}
	for _, alg := range names {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			p := DefaultParams()
			p.Topology = "torus"
			p.Algorithm = alg
			p.Rate = 0.05 // 1.6 flits/node/cycle offered vs 0.8 capacity
			p.MessageLength = 32
			p.WarmupCycles = 500
			p.MeasureCycles = 3000
			res, err := Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Delivered == 0 {
				t.Fatal("saturated torus delivered nothing")
			}
			if res.Stats.Killed != 0 {
				t.Errorf("%s on saturated fault-free torus: %d recovery kills (global=%d stall=%d livelock=%d), want 0",
					alg, res.Stats.Killed, res.Stats.KilledGlobal, res.Stats.KilledStall, res.Stats.KilledLivelock)
			}
		})
	}
}

// TestTorusGoldenDeterminism asserts the determinism contract holds on
// the torus backend exactly as on the mesh: bit-identical Stats across
// repeated runs.
func TestTorusGoldenDeterminism(t *testing.T) {
	run := func() Result {
		res, err := Run(torusParams())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	s1, s2 := run(), run()
	if s1.Stats.Delivered == 0 {
		t.Fatal("torus golden scenario delivered nothing")
	}
	if !statsEqual(s1.Stats, s2.Stats) {
		t.Error("torus runs with the same seed diverged")
	}
}

// TestTorusFaultedWrapRegion runs a torus with an explicit fault block
// straddling the X wrap edge, exercising the wrapped region, its closed
// f-ring, and BC traversal over wrap links.
func TestTorusFaultedWrapRegion(t *testing.T) {
	torus := topology.NewTorus(10, 10)
	p := DefaultParams()
	p.Topology = "torus"
	p.Algorithm = "Duato"
	p.Rate = 0.004
	p.MessageLength = 32
	p.WarmupCycles = 500
	p.MeasureCycles = 3000
	p.FaultNodes = []topology.NodeID{
		torus.ID(topology.Coord{X: 9, Y: 5}),
		torus.ID(topology.Coord{X: 0, Y: 5}),
	}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regions != 1 {
		t.Fatalf("wrap faults formed %d regions, want 1", res.Regions)
	}
	if res.Stats.Delivered == 0 {
		t.Fatal("faulted torus delivered nothing")
	}
	if res.Stats.Killed != 0 {
		t.Errorf("faulted torus run killed %d messages, want 0", res.Stats.Killed)
	}
}

// TestTorusRejectsMeshOnlyAlgorithms asserts the registry guard
// surfaces through sim.Run with a useful message.
func TestTorusRejectsMeshOnlyAlgorithms(t *testing.T) {
	for _, alg := range []string{"Minimal-Adaptive", "Fully-Adaptive", "Boura-Adaptive", "Boura-FT"} {
		p := torusParams()
		p.Algorithm = alg
		if _, err := Run(p); err == nil || !strings.Contains(err.Error(), alg) {
			t.Errorf("%s on torus: err = %v, want rejection naming the algorithm", alg, err)
		}
	}
	// Odd dimensions additionally reject the negative-hop family.
	p := torusParams()
	p.Width, p.Height = 9, 9
	p.Algorithm = "NHop"
	if _, err := Run(p); err == nil || !strings.Contains(err.Error(), "even") {
		t.Errorf("NHop on odd torus: err = %v, want even-dimension rejection", err)
	}
}
