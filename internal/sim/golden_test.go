package sim

import (
	"reflect"
	"testing"

	"wormmesh/internal/core"
)

// goldenParams is one mid-load faulty-mesh scenario used to lock in the
// engine's determinism contract: the engine must be exactly
// reproducible for a fixed seed. The memory-layout refactors (flit
// windows, message arena) are required to keep this test passing
// unchanged.
func goldenParams() Params {
	p := DefaultParams()
	p.Algorithm = "Duato"
	p.Pattern = "uniform"
	p.Rate = 0.004 // mid load: contention without saturation
	p.MessageLength = 32
	p.Faults = 6
	p.FaultSeed = 42
	p.Seed = 1234
	p.WarmupCycles = 500
	p.MeasureCycles = 2500
	return p
}

func goldenRun(t *testing.T) core.Stats {
	t.Helper()
	res, err := Run(goldenParams())
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats
}

// statsEqual compares every exported field, including the per-VC and
// per-node slices — "bit-identical" means the whole Stats value.
func statsEqual(a, b core.Stats) bool { return reflect.DeepEqual(a, b) }

// TestGoldenDeterminismAcrossRuns asserts that two runs with the same
// seed are bit-identical.
func TestGoldenDeterminismAcrossRuns(t *testing.T) {
	a := goldenRun(t)
	b := goldenRun(t)
	if a.Delivered == 0 {
		t.Fatal("golden scenario delivered nothing")
	}
	if a.LatencyCount == 0 {
		t.Fatal("golden scenario measured no latencies")
	}
	if !statsEqual(a, b) {
		t.Errorf("same seed diverged across runs:\n  a: %+v\n  b: %+v", a, b)
	}
}
