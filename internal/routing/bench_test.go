package routing

import (
	"math/rand"
	"testing"

	"wormmesh/internal/core"
	"wormmesh/internal/fault"
	"wormmesh/internal/topology"
)

// BenchmarkCandidates measures the routing-decision cost of each
// algorithm — the hottest call in the simulation inner loop.
func BenchmarkCandidates(b *testing.B) {
	m := topology.New(10, 10)
	ids, err := fault.NamedPattern("center-block", m)
	if err != nil {
		b.Fatal(err)
	}
	f, err := fault.New(m, ids)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"PHop", "Nbc", "Duato-Nbc", "Minimal-Adaptive", "Boura-FT"} {
		b.Run(name, func(b *testing.B) {
			alg := MustNew(name, f, 24)
			msg := core.NewMessage(1, m.ID(topology.Coord{X: 1, Y: 1}), m.ID(topology.Coord{X: 8, Y: 7}), 1)
			alg.InitMessage(msg)
			var cands core.CandidateSet
			node := m.ID(topology.Coord{X: 3, Y: 4})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cands.Reset()
				alg.Candidates(msg, node, &cands)
			}
		})
	}
}

// BenchmarkStepLoadedFaulted measures the per-cycle engine cost with
// live traffic on a FAULTED mesh, so the Boppana–Chalasani wrapper's
// canProgress / blockingRing / ring-traversal paths — not just the
// fault-free base algorithms — sit on the measured hot path. The
// center-block pattern forces steady f-ring traffic for messages whose
// minimal paths cross the middle of the mesh.
func BenchmarkStepLoadedFaulted(b *testing.B) {
	mesh := topology.New(10, 10)
	ids, err := fault.NamedPattern("center-block", mesh)
	if err != nil {
		b.Fatal(err)
	}
	f, err := fault.New(mesh, ids)
	if err != nil {
		b.Fatal(err)
	}
	healthy := f.HealthyNodes()
	for _, name := range []string{"Nbc", "Duato-Nbc", "Boura-FT"} {
		b.Run(name, func(b *testing.B) {
			alg := MustNew(name, f, 24)
			cfg := core.DefaultConfig()
			cfg.MaxSourceQueue = 4
			cfg.MaxHops = int32(16 * mesh.Diameter())
			n, err := core.NewNetwork(mesh, f, alg, cfg, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			defer n.Close()
			rng := rand.New(rand.NewSource(2))
			id := int64(0)
			step := func() {
				for k := 0; k < 2; k++ { // busy mesh, ring traffic
					src := healthy[rng.Intn(len(healthy))]
					dst := healthy[rng.Intn(len(healthy))]
					if src != dst {
						id++
						m := n.AcquireMessage(id, src, dst, 16)
						m.GenTime = n.Cycle()
						n.Offer(m)
					}
				}
				n.Step()
			}
			// Reach the arena's steady-state capacity before measuring.
			for i := 0; i < 3000; i++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// BenchmarkWalk measures a full lone-message walk around the central
// block (routing decisions + state updates over the whole path).
func BenchmarkWalk(b *testing.B) {
	m := topology.New(10, 10)
	ids, err := fault.NamedPattern("center-block", m)
	if err != nil {
		b.Fatal(err)
	}
	f, err := fault.New(m, ids)
	if err != nil {
		b.Fatal(err)
	}
	alg := MustNew("Nbc", f, 24)
	rng := rand.New(rand.NewSource(1))
	src := m.ID(topology.Coord{X: 0, Y: 4})
	dst := m.ID(topology.Coord{X: 9, Y: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := walkOnce(f, alg, src, dst, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoads prices one route-load walk: every healthy pair of a
// 10×10 mesh with five random faults (fault seed 1), twice. This is the
// cost a faulted surrogate build pays once per fault set.
func BenchmarkLoads(b *testing.B) {
	f, err := fault.Generate(topology.New(10, 10), 5, rand.New(rand.NewSource(1)), fault.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Loads(f); err != nil {
			b.Fatal(err)
		}
	}
}
