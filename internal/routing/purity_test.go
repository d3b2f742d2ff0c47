package routing

import (
	"math/rand"
	"testing"

	"wormmesh/internal/core"
	"wormmesh/internal/fault"
	"wormmesh/internal/topology"
)

// TestCandidatesPure checks the purity contract on core.Algorithm's
// Candidates that the engine's blocked-header skip relies on: asked
// twice with the same message at the same node, every algorithm
// returns the same ordered candidate set and leaves *m untouched. The
// messages walk random routes, taking channels from any non-empty tier
// (the engine may fall back to any of them), so ring traversals,
// misroutes and escape classes are all visited. It covers the 11
// algorithms on a fault-free mesh, an interior block and 10 random
// faults, and the torus-capable ones on a fault-free and a faulted
// torus. Along the way it checks the Boppana–Chalasani wrapper's
// reliance on its bases offering every minimal direction: where
// minimal fault-free progress exists, the fault filter never leaves the
// list empty.
func TestCandidatesPure(t *testing.T) {
	mesh := topology.New(10, 10)
	block, err := fault.NamedPattern("center-block", mesh)
	if err != nil {
		t.Fatal(err)
	}
	blockModel, err := fault.New(mesh, block)
	if err != nil {
		t.Fatal(err)
	}
	random, err := fault.Generate(mesh, 10, rand.New(rand.NewSource(4)), fault.Options{})
	if err != nil {
		t.Fatal(err)
	}
	torus := topology.NewTorus(8, 8)
	torusFaults, err := fault.Generate(torus, 4, rand.New(rand.NewSource(5)), fault.Options{})
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []struct {
		name  string
		model *fault.Model
		algs  []string
	}{
		{"mesh/fault-free", fault.None(mesh), AlgorithmNames},
		{"mesh/interior-block", blockModel, AlgorithmNames},
		{"mesh/10-random", random, AlgorithmNames},
		{"torus/fault-free", fault.None(torus), TorusAlgorithmNames(torus)},
		{"torus/4-random", torusFaults, TorusAlgorithmNames(torus)},
	}
	for _, sc := range scenarios {
		for _, name := range sc.algs {
			sc, name := sc, name
			t.Run(sc.name+"/"+name, func(t *testing.T) {
				t.Parallel()
				f := sc.model
				vcs, err := MinVCs(name, f.Topo)
				if err != nil {
					t.Fatal(err)
				}
				alg := MustNew(name, f, vcs+2)
				healthy := f.HealthyNodes()
				rng := rand.New(rand.NewSource(int64(len(name)) + int64(len(healthy))))
				var first, again core.CandidateSet
				calls := 0
				for walk := 0; walk < 300; walk++ {
					src := healthy[rng.Intn(len(healthy))]
					dst := healthy[rng.Intn(len(healthy))]
					if src == dst {
						continue
					}
					m := core.NewMessage(int64(walk), src, dst, 4)
					alg.InitMessage(m)
					cur := src
					for step := 0; cur != dst && step < 4*f.Topo.Diameter(); step++ {
						before := *m
						first.Reset()
						alg.Candidates(m, cur, &first)
						if *m != before {
							t.Fatalf("%v->%v at %v: Candidates wrote the message", src, dst, cur)
						}
						if w, ok := alg.(*bcWrapper); ok && first.Empty() {
							except := topology.Invalid
							if m.RingIdx >= 0 {
								except = m.Prev
							}
							if w.canProgress(cur, dst, except) {
								t.Fatalf("%v->%v at %v: the fault filter emptied the list although minimal progress exists", src, dst, cur)
							}
						}
						again.Reset()
						alg.Candidates(m, cur, &again)
						calls += 2
						if !sameCandidates(&first, &again) {
							t.Fatalf("%v->%v at %v: repeated Candidates differ", src, dst, cur)
						}
						ch, ok := anyTier(&first, rng)
						if !ok {
							break
						}
						alg.Advance(m, cur, ch)
						cur = f.Topo.NeighborID(cur, ch.Dir)
					}
				}
				if calls == 0 {
					t.Fatal("no Candidates call made")
				}
			})
		}
	}
}

// sameCandidates reports whether two candidate sets hold the same
// channels in the same order, tier by tier.
func sameCandidates(a, b *core.CandidateSet) bool {
	for tier := 0; tier < core.MaxTiers; tier++ {
		x, y := a.Tier(tier), b.Tier(tier)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
	}
	return true
}

// anyTier picks a random channel from a random non-empty tier.
func anyTier(s *core.CandidateSet, rng *rand.Rand) (core.Channel, bool) {
	var tiers []int
	for tier := 0; tier < core.MaxTiers; tier++ {
		if len(s.Tier(tier)) > 0 {
			tiers = append(tiers, tier)
		}
	}
	if len(tiers) == 0 {
		return core.Channel{}, false
	}
	tc := s.Tier(tiers[rng.Intn(len(tiers))])
	return tc[rng.Intn(len(tc))], true
}
