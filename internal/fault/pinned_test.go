package fault

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"wormmesh/internal/topology"
)

// TestRegionsPinned pins block convexification end to end: over seeded
// random seed-fault sets on four meshes and one torus, an FNV-64a
// digest of every model's regions, faulty mask and f-ring node order
// (or the rejection error) must match the value recorded when mesh
// regions still came from a flood fill plus pairwise box merge. Any
// change to region closure, region order, deactivation or ring
// enumeration moves a digest.
func TestRegionsPinned(t *testing.T) {
	cases := []struct {
		topo topology.Topology
		want uint64
	}{
		{topology.New(6, 6), 0xc2c26c934b2c4cc3},
		{topology.New(10, 10), 0xbb62220c27677045},
		{topology.New(16, 8), 0xf78a889fb3950a42},
		{topology.New(32, 32), 0x797da4f9b383bed0},
		{topology.NewTorus(8, 8), 0xd66ff667972b7823},
	}
	for _, c := range cases {
		if got := regionsDigest(c.topo, 300); got != c.want {
			t.Errorf("%v: regions digest %#x, want %#x", c.topo, got, c.want)
		}
	}
}

// regionsDigest builds `patterns` models from seed-fault sets of 1 to
// N/4 nodes (density varied per pattern) and hashes each outcome.
func regionsDigest(m topology.Topology, patterns int) uint64 {
	h := fnv.New64a()
	put := func(v int) { h.Write(binary.LittleEndian.AppendUint64(nil, uint64(int64(v)))) }
	rng := rand.New(rand.NewSource(int64(m.NodeCount())))
	n := m.NodeCount()
	ids := make([]topology.NodeID, n)
	for i := range ids {
		ids[i] = topology.NodeID(i)
	}
	for p := 0; p < patterns; p++ {
		count := 1 + rng.Intn(max(1, (n/4)>>rng.Intn(3)))
		rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		f, err := New(m, ids[:count])
		if err != nil {
			h.Write([]byte(err.Error()))
			continue
		}
		for _, r := range f.Regions() {
			put(r.Min.X)
			put(r.Min.Y)
			put(r.Max.X)
			put(r.Max.Y)
		}
		for id := 0; id < n; id++ {
			if f.IsFaulty(topology.NodeID(id)) {
				put(id)
			}
		}
		for _, ring := range f.Rings() {
			put(len(ring.Nodes))
			for _, id := range ring.Nodes {
				put(int(id))
			}
			if ring.Chain {
				put(-1)
			}
		}
	}
	return h.Sum64()
}
