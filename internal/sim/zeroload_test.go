package sim

import (
	"math/rand"
	"testing"

	"wormmesh/internal/core"
	"wormmesh/internal/fault"
	"wormmesh/internal/routing"
	"wormmesh/internal/topology"
)

// TestZeroLoadClosedForm is an oracle that shares no code with the
// engine's internals: a lone message in an empty fault-free mesh never
// waits — its latency decomposition holds no queue, routing or blocked
// cycle — so its latency is a closed form. The injection grant and the
// header's first link traversal take the generation cycle, each further
// hop one cycle, the ejection one, and the body streams behind the
// header one flit per cycle:
//
//	latency = hops + length - 1
//
// with hops the Manhattan distance, since every algorithm routes
// minimally when nothing is faulty. Checked for every ordered pair of
// a 6×6 mesh, all 11 algorithms, and several message lengths.
func TestZeroLoadClosedForm(t *testing.T) {
	mesh := topology.New(6, 6)
	f := fault.None(mesh)
	for _, name := range routing.AlgorithmNames {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultEngineConfig()
			alg, err := routing.New(name, f, cfg.NumVCs)
			if err != nil {
				t.Fatal(err)
			}
			net, err := core.NewNetwork(mesh, f, alg, cfg, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			id := int64(0)
			for _, length := range []int{1, 2, 7, 20} {
				for src := topology.NodeID(0); int(src) < mesh.NodeCount(); src++ {
					for dst := topology.NodeID(0); int(dst) < mesh.NodeCount(); dst++ {
						if src == dst {
							continue
						}
						id++
						m := core.NewMessage(id, src, dst, length)
						m.GenTime = net.Cycle()
						net.Offer(m)
						hops := mesh.Distance(mesh.CoordOf(src), mesh.CoordOf(dst))
						want := int64(hops + length - 1)
						for i := int64(0); i <= want && !m.Delivered(); i++ {
							net.Step()
						}
						if !m.Delivered() {
							t.Fatalf("%v->%v len %d: not delivered within %d cycles", mesh.CoordOf(src), mesh.CoordOf(dst), length, want+1)
						}
						if got := m.Latency(); got != want {
							t.Fatalf("%v->%v len %d: latency %d, want hops %d + length %d - 1 = %d",
								mesh.CoordOf(src), mesh.CoordOf(dst), length, got, hops, length, want)
						}
						if m.LatQueue != 0 || m.LatRoute != 0 || m.LatBlocked != 0 {
							t.Fatalf("%v->%v len %d: waited (queue %d, route %d, blocked %d)", mesh.CoordOf(src), mesh.CoordOf(dst), length, m.LatQueue, m.LatRoute, m.LatBlocked)
						}
						if int(m.Hops) != hops {
							t.Fatalf("%v->%v: took %d hops, want %d", mesh.CoordOf(src), mesh.CoordOf(dst), m.Hops, hops)
						}
					}
				}
			}
		})
	}
}
