package routing

import (
	"math"
	"math/rand"
	"testing"

	"wormmesh/internal/fault"
	"wormmesh/internal/topology"
)

func mustLoads(t *testing.T, f *fault.Model) *LoadMap {
	t.Helper()
	lm, err := Loads(f)
	if err != nil {
		t.Fatalf("Loads: %v", err)
	}
	return lm
}

// Fault-free, the fortification routes minimally: total expected channel
// crossings per message must equal the exact mean minimal distance, and
// no mass may be lost.
func TestRouteLoadsFaultFreeConservation(t *testing.T) {
	m := topology.New(8, 8)
	f := fault.None(m)
	// Exact mean distance over distinct ordered pairs.
	n := float64(m.NodeCount())
	mad := func(k int) float64 { kk := float64(k); return (kk*kk - 1) / (3 * kk) }
	want := (mad(8) + mad(8)) * n / (n - 1)

	lm := mustLoads(t, f)
	sum := 0.0
	for _, u := range lm.Loads {
		sum += u
	}
	if math.Abs(sum-want) > 1e-9 {
		t.Errorf("total load %.9f, want mean distance %.9f", sum, want)
	}
	if math.Abs(lm.MeanHops-want) > 1e-9 {
		t.Errorf("MeanHops %.9f, want %.9f", lm.MeanHops, want)
	}
	if lm.RingHops != 0 {
		t.Errorf("fault-free RingHops = %v, want 0", lm.RingHops)
	}
	if lm.LostMass > 1e-9 {
		t.Errorf("lost mass %v", lm.LostMass)
	}
	if lm.Pairs != len(lm.PairBottlenecks) {
		t.Errorf("%d pairs but %d bottlenecks", lm.Pairs, len(lm.PairBottlenecks))
	}
}

// Fault-free loads must exhibit the mesh's symmetries under uniform
// traffic: reflection about the horizontal axis (row y ≡ row H-1-y)
// and direction reversal (east load of (x,y) ≡ west load of (x+1,y)).
// Note the rows of one cut do NOT carry equal load — adaptive walks
// concentrate traffic toward the center, which is exactly the
// routing-dependence the bisection-cut shortcut cannot see.
func TestRouteLoadsFaultFreeSymmetry(t *testing.T) {
	m := topology.New(6, 6)
	f := fault.None(m)
	lm := mustLoads(t, f)
	ch := func(x, y int, d topology.Direction) float64 {
		return lm.Loads[int(m.ID(topology.Coord{X: x, Y: y}))*int(topology.NumDirs)+int(d)]
	}
	for y := 0; y < 6; y++ {
		if e, mir := ch(2, y, topology.East), ch(2, 5-y, topology.East); math.Abs(e-mir) > 1e-12 {
			t.Fatalf("reflection asymmetry: row %d east %v vs row %d %v", y, e, 5-y, mir)
		}
		if e, w := ch(2, y, topology.East), ch(3, y, topology.West); math.Abs(e-w) > 1e-12 {
			t.Fatalf("direction asymmetry at row %d: east %v vs west %v", y, e, w)
		}
	}
	if center, edge := ch(2, 2, topology.East), ch(2, 0, topology.East); center <= edge {
		t.Fatalf("adaptive load should concentrate at the center: center %v <= edge %v", center, edge)
	}
}

// With a fault region, detours must show up: mean hops exceed the
// fault-free healthy-pair mean distance, ring hops are positive, and
// mass is still conserved (delivered ≈ 1 per pair).
func TestRouteLoadsFaultedDetours(t *testing.T) {
	m := topology.New(8, 8)
	var blocked []topology.NodeID
	for y := 3; y <= 4; y++ {
		for x := 3; x <= 4; x++ {
			blocked = append(blocked, m.ID(topology.Coord{X: x, Y: y}))
		}
	}
	f, err := fault.New(m, blocked)
	if err != nil {
		t.Fatal(err)
	}
	// Healthy-pair minimal mean distance, computed directly.
	healthy := f.HealthyNodes()
	minSum, pairs := 0.0, 0
	for _, a := range healthy {
		for _, b := range healthy {
			if a == b {
				continue
			}
			minSum += float64(m.Distance(m.CoordOf(a), m.CoordOf(b)))
			pairs++
		}
	}
	minMean := minSum / float64(pairs)

	lm := mustLoads(t, f)
	if lm.LostMass > 1e-6 {
		t.Errorf("lost mass %v", lm.LostMass)
	}
	if lm.MeanHops <= minMean {
		t.Errorf("faulted MeanHops %.4f not above minimal mean %.4f", lm.MeanHops, minMean)
	}
	if lm.RingHops <= 0 {
		t.Errorf("expected positive ring hops, got %v", lm.RingHops)
	}
	// Conservation: total crossings = mean hops by construction;
	// delivered mass per pair must be ≈ 1.
	sum := 0.0
	for _, u := range lm.Loads {
		sum += u
	}
	if math.Abs(sum-lm.MeanHops) > 1e-9 {
		t.Errorf("Σloads %.9f != MeanHops %.9f", sum, lm.MeanHops)
	}
	// No load may point into a fault region.
	for id := topology.NodeID(0); int(id) < m.NodeCount(); id++ {
		for d := topology.Direction(0); d < topology.NumDirs; d++ {
			u := lm.Loads[int(id)*int(topology.NumDirs)+int(d)]
			if u == 0 {
				continue
			}
			nb := m.NeighborID(id, d)
			if nb == topology.Invalid || f.IsFaulty(nb) || f.IsFaulty(id) {
				t.Fatalf("load %v on channel %v/%v into fault or edge", u, m.CoordOf(id), d)
			}
		}
	}
}

// Randomly faulted meshes: the walk must deliver all mass for
// generated (coalesced, boundary-avoiding) fault patterns.
func TestRouteLoadsRandomFaults(t *testing.T) {
	m := topology.New(8, 8)
	for _, faults := range []int{2, 5} {
		f, err := fault.Generate(m, faults, rand.New(rand.NewSource(int64(faults)*7+1)), fault.Options{ForbidBoundary: true})
		if err != nil {
			t.Fatalf("Generate(%d): %v", faults, err)
		}
		lm := mustLoads(t, f)
		if lm.LostMass > 1e-6 {
			t.Errorf("faults=%d: lost mass %v", faults, lm.LostMass)
		}
		if lm.PeakLoad() <= 0 {
			t.Errorf("faults=%d: no peak load", faults)
		}
	}
}

func TestRouteLoadsUnsupported(t *testing.T) {
	if LoadsSupported("Boura-FT") {
		t.Fatal("LoadsSupported(Boura-FT) = true")
	}
	if LoadsSupported("nope") {
		t.Fatal("LoadsSupported(nope) = true")
	}
	for _, name := range AlgorithmNames {
		if name != "Boura-FT" && !LoadsSupported(name) {
			t.Errorf("LoadsSupported(%s) = false", name)
		}
	}
}

// Per-pair bottlenecks must bound the global peak: no pair can see a
// bottleneck above peak load, and some pair must see exactly it.
func TestRouteLoadsPairBottlenecks(t *testing.T) {
	m := topology.New(6, 6)
	f := fault.None(m)
	lm := mustLoads(t, f)
	peak := lm.PeakLoad()
	maxB := 0.0
	for _, b := range lm.PairBottlenecks {
		if b > peak+1e-12 {
			t.Fatalf("pair bottleneck %v exceeds peak %v", b, peak)
		}
		if b > maxB {
			maxB = b
		}
	}
	// The busiest channel is crossed with probability ≤ 1 by any single
	// pair, so maxB ≤ peak; but pairs crossing it deterministically
	// should see a bottleneck close to the peak.
	if maxB <= 0 {
		t.Fatal("no positive pair bottleneck")
	}
}
