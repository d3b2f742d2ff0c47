package fault

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wormmesh/internal/topology"
)

// Property tests on the region geometry primitives via testing/quick.

func regionFrom(a, b topology.Coord) Region {
	r := Region{Min: a, Max: a}
	if b.X < r.Min.X {
		r.Min.X = b.X
	} else {
		r.Max.X = b.X
	}
	if b.Y < r.Min.Y {
		r.Min.Y = b.Y
	} else {
		r.Max.Y = b.Y
	}
	return r
}

func randCoord(rng *rand.Rand) topology.Coord {
	return topology.Coord{X: rng.Intn(20), Y: rng.Intn(20)}
}

func TestQuickRegionChebyshevSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		a := regionFrom(randCoord(rng), randCoord(rng))
		b := regionFrom(randCoord(rng), randCoord(rng))
		return a.chebyshev(b) == b.chebyshev(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickRegionChebyshevZeroIffOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		a := regionFrom(randCoord(rng), randCoord(rng))
		b := regionFrom(randCoord(rng), randCoord(rng))
		overlap := false
		for y := a.Min.Y; y <= a.Max.Y && !overlap; y++ {
			for x := a.Min.X; x <= a.Max.X; x++ {
				if b.Contains(topology.Coord{X: x, Y: y}) {
					overlap = true
					break
				}
			}
		}
		return (a.chebyshev(b) == 0) == overlap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickRingLengthFormula: a closed f-ring around a w×h interior
// region has exactly 2(w+h)+4 nodes.
func TestQuickRingLengthFormula(t *testing.T) {
	m := topology.New(16, 16)
	rng := rand.New(rand.NewSource(4))
	f := func() bool {
		w := 1 + rng.Intn(4)
		h := 1 + rng.Intn(4)
		x0 := 2 + rng.Intn(16-w-4)
		y0 := 2 + rng.Intn(16-h-4)
		var ids []topology.NodeID
		for y := y0; y < y0+h; y++ {
			for x := x0; x < x0+w; x++ {
				ids = append(ids, m.ID(topology.Coord{X: x, Y: y}))
			}
		}
		model, err := New(m, ids)
		if err != nil {
			return false
		}
		if len(model.Rings()) != 1 || model.Rings()[0].Chain {
			return false
		}
		return model.Rings()[0].Len() == 2*(w+h)+4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickGeneratedPatternsSatisfyInvariants fuzzes Generate with
// random counts and seeds through quick.Check.
func TestQuickGeneratedPatternsSatisfyInvariants(t *testing.T) {
	m := topology.New(10, 10)
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		count := rng.Intn(12)
		seed := rng.Int63()
		model, err := Generate(m, count, rand.New(rand.NewSource(seed)), Options{})
		if err != nil {
			// Acceptable only for large counts that keep disconnecting.
			return count > 8
		}
		if model.SeedCount() != count {
			return false
		}
		// Every ring node borders its region.
		for ri, ring := range model.Rings() {
			region := model.Regions()[ri]
			for _, id := range ring.Nodes {
				c := m.CoordOf(id)
				if c.X < region.Min.X-1 || c.X > region.Max.X+1 ||
					c.Y < region.Min.Y-1 || c.Y > region.Max.Y+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
