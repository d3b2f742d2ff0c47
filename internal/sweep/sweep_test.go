package sweep

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"wormmesh/internal/sim"
)

func quickParams(alg string, rate float64, faults int) sim.Params {
	p := sim.DefaultParams()
	p.Algorithm = alg
	p.Rate = rate
	p.Faults = faults
	p.WarmupCycles = 300
	p.MeasureCycles = 1200
	return p
}

func TestRunPreservesOrderAndReportsProgress(t *testing.T) {
	var points []Point
	for i, alg := range []string{"Duato", "NHop", "Minimal-Adaptive", "Nbc"} {
		points = append(points, Point{Key: alg, Params: quickParams(alg, 0.001+0.0005*float64(i), 0)})
	}
	var calls int64
	outcomes := Run(points, 2, func(done, total int) {
		atomic.AddInt64(&calls, 1)
		if total != len(points) {
			t.Errorf("total = %d", total)
		}
	})
	if len(outcomes) != len(points) {
		t.Fatalf("outcomes = %d", len(outcomes))
	}
	for i, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("point %d: %v", i, o.Err)
		}
		if o.Point.Key != points[i].Key {
			t.Errorf("outcome %d key %q, want %q (order not preserved)", i, o.Point.Key, points[i].Key)
		}
		if o.Result.Stats.Delivered == 0 {
			t.Errorf("point %d delivered nothing", i)
		}
	}
	if calls != int64(len(points)) {
		t.Errorf("progress calls = %d, want %d", calls, len(points))
	}
	if err := FirstError(outcomes); err != nil {
		t.Errorf("FirstError = %v", err)
	}
}

func TestRunSurfacesErrors(t *testing.T) {
	bad := quickParams("no-such-algorithm", 0.001, 0)
	outcomes := Run([]Point{{Key: "bad", Params: bad}}, 1, nil)
	if outcomes[0].Err == nil {
		t.Fatal("bad algorithm did not error")
	}
	if FirstError(outcomes) == nil {
		t.Fatal("FirstError missed the failure")
	}
}

// TestProgressCallbackSerialized exercises the documented progress
// contract with a deliberately unsynchronized mutating closure: the
// sweep serializes callback invocations, so the closure may append to a
// slice and bump a plain counter without its own locking. Run under
// -race (CI does), this test catches any regression to concurrent
// callback invocation; it also checks each done value is delivered
// exactly once.
func TestProgressCallbackSerialized(t *testing.T) {
	base := quickParams("Duato", 0.002, 4)
	base.WarmupCycles = 100
	base.MeasureCycles = 400
	points := FaultReplicas("cell", base, 12)
	var seen []int // mutated inside the callback with no locking: the contract allows it
	calls := 0
	outcomes := Run(points, 4, func(done, total int) {
		calls++
		seen = append(seen, done)
		if total != len(points) {
			t.Errorf("total = %d, want %d", total, len(points))
		}
	})
	if err := FirstError(outcomes); err != nil {
		t.Fatal(err)
	}
	if calls != len(points) || len(seen) != len(points) {
		t.Fatalf("progress calls = %d (recorded %d), want %d", calls, len(seen), len(points))
	}
	delivered := make([]bool, len(points)+1)
	for _, d := range seen {
		if d < 1 || d > len(points) || delivered[d] {
			t.Fatalf("done value %d out of range or duplicated (seen %v)", d, seen)
		}
		delivered[d] = true
	}
}

func TestMoments(t *testing.T) {
	var m Moments
	if !math.IsNaN(m.Mean()) {
		t.Error("empty mean not NaN")
	}
	if m.Std() != 0 {
		t.Error("empty std not 0")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(v)
	}
	if m.Mean() != 5 {
		t.Errorf("mean = %v, want 5", m.Mean())
	}
	if math.Abs(m.Std()-2.1380899) > 1e-6 {
		t.Errorf("std = %v", m.Std())
	}
	m.Add(math.NaN())
	if m.N != 8 {
		t.Error("NaN was folded in")
	}
}

func TestConfidenceInterval(t *testing.T) {
	var m Moments
	if m.CI95() != 0 {
		t.Error("empty CI nonzero")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(v)
	}
	// n=8, df=7: t = 2.365; CI = 2.365 * 2.138 / sqrt(8) = 1.788.
	if ci := m.CI95(); math.Abs(ci-1.7878) > 1e-3 {
		t.Errorf("CI95 = %v, want ~1.788", ci)
	}
}

func TestAggregateGroupsByKey(t *testing.T) {
	outcomes := Run([]Point{
		{Key: "a", Params: quickParams("Duato", 0.001, 0)},
		{Key: "a", Params: func() sim.Params { p := quickParams("Duato", 0.001, 0); p.Seed = 2; return p }()},
		{Key: "b", Params: quickParams("NHop", 0.001, 0)},
	}, 0, nil)
	cells := Aggregate(outcomes)
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	if cells[0].Key != "a" || cells[0].N != 2 {
		t.Errorf("cell a: key=%q n=%d", cells[0].Key, cells[0].N)
	}
	if cells[1].Key != "b" || cells[1].N != 1 {
		t.Errorf("cell b: key=%q n=%d", cells[1].Key, cells[1].N)
	}
	if cells[0].Latency.N != 2 || math.IsNaN(cells[0].Latency.Mean()) {
		t.Error("latency moments not accumulated")
	}
	SortCells(cells)
	if cells[0].Key != "a" {
		t.Error("SortCells broke order")
	}
}

func TestFaultReplicasVarySeeds(t *testing.T) {
	base := quickParams("Duato", 0.001, 5)
	pts := FaultReplicas("k", base, 3)
	if len(pts) != 3 {
		t.Fatalf("replicas = %d", len(pts))
	}
	seen := map[int64]bool{}
	for _, p := range pts {
		if p.Key != "k" {
			t.Errorf("key %q", p.Key)
		}
		if seen[p.Params.FaultSeed] {
			t.Error("duplicate fault seed")
		}
		seen[p.Params.FaultSeed] = true
	}
}

func TestSaturationSearch(t *testing.T) {
	base := quickParams("Duato", 0, 0)
	rate, thr, err := SaturationSearch(base, 0.0005, 0.05, 6)
	if err != nil {
		t.Fatal(err)
	}
	if thr <= 0 {
		t.Fatalf("throughput = %v", thr)
	}
	if rate < 0.0005 {
		t.Fatalf("rate = %v", rate)
	}
	// Saturation throughput must be near the bisection bound, well
	// below the offered load at the final rate.
	if thr > 0.4 {
		t.Errorf("throughput %v exceeds 10x10 bisection capacity 0.4", thr)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: nothing should run
	points := []Point{
		{Key: "a", Params: quickParams("Duato", 0.001, 0)},
		{Key: "b", Params: quickParams("NHop", 0.001, 0)},
	}
	outcomes := RunContext(ctx, points, 2, nil)
	for _, o := range outcomes {
		if o.Err == nil {
			t.Errorf("point %q ran despite cancelled context", o.Point.Key)
		}
	}
}
