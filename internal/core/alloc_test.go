package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"wormmesh/internal/topology"
)

// loadNetwork fills a network with pooled traffic and advances it until
// the arena and every internal scratch slice have reached steady-state
// capacity, so the measured region below performs no growth.
func loadNetwork(tb testing.TB, mesh topology.Topology) (*Network, *rand.Rand, *int64) {
	return loadNetworkAlg(tb, mesh, xyAlg{mesh: mesh, vcs: 8})
}

// loadNetworkAlg is loadNetwork with a caller-chosen algorithm, so
// torus workloads can use the dateline discipline.
func loadNetworkAlg(tb testing.TB, mesh topology.Topology, alg Algorithm) (*Network, *rand.Rand, *int64) {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.NumVCs = 8
	cfg.MaxSourceQueue = 4
	n, err := NewNetwork(mesh, nil, alg, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	id := new(int64)
	// Warm up: drive enough traffic that the message pool, active
	// slices and source queues grow to their steady-state capacity. 24×24 under this load plateaus at several
	// hundred messages in flight, so run well past the ramp.
	for i := 0; i < 6000; i++ {
		stepLoaded(n, mesh, rng, id)
	}
	// Stock the arena with a cushion: offers run before the cycle's
	// deliveries recycle, so the pool transiently dips below its
	// steady-state level; the cushion absorbs that dip and ordinary
	// in-flight fluctuation without falling back to the heap.
	cushion := make([]*Message, 512)
	for i := range cushion {
		cushion[i] = n.AcquireMessage(0, 0, 1, 16)
	}
	for _, m := range cushion {
		n.recycle(m)
	}
	return n, rng, id
}

// stepLoaded is one cycle of the allocation-budget workload: offer up
// to four pooled messages, then step.
func stepLoaded(n *Network, mesh topology.Topology, rng *rand.Rand, id *int64) {
	for k := 0; k < 4; k++ {
		src := topology.NodeID(rng.Intn(mesh.NodeCount()))
		dst := topology.NodeID(rng.Intn(mesh.NodeCount()))
		if src != dst {
			*id++
			m := n.AcquireMessage(*id, src, dst, 16)
			m.GenTime = n.Cycle()
			n.Offer(m)
		}
	}
	n.Step()
}

// TestStepLoadedAllocs locks in the zero-allocation steady state of the
// serial engine: once the arena is warm, a loaded Step (including the
// Offer path) must not touch the heap.
func TestStepLoadedAllocs(t *testing.T) {
	// Interface-typed so the measured closure does not re-box the
	// concrete Mesh into the Topology parameter on every call.
	var mesh topology.Topology = topology.New(10, 10)
	n, rng, id := loadNetwork(t, mesh)
	allocs := testing.AllocsPerRun(500, func() {
		stepLoaded(n, mesh, rng, id)
	})
	if allocs != 0 {
		t.Errorf("serial loaded Step allocates %.2f objects/cycle, want 0", allocs)
	}
}

// TestStepLoadedAllocsTorus locks in the same zero-allocation budget on
// the torus backend: wrap links and the dateline VC discipline must not
// introduce heap traffic into a loaded Step.
func TestStepLoadedAllocsTorus(t *testing.T) {
	// Interface-typed so the measured closure does not re-box the
	// concrete Torus into the Topology parameter on every call.
	var torus topology.Topology = topology.NewTorus(10, 10)
	n, rng, id := loadNetworkAlg(t, torus, torusXYAlg{topo: torus, vcs: 8})
	allocs := testing.AllocsPerRun(500, func() {
		stepLoaded(n, torus, rng, id)
	})
	if allocs != 0 {
		t.Errorf("torus loaded Step allocates %.2f objects/cycle, want 0", allocs)
	}
}

// TestValidateAllocs locks in the allocation-free invariant checker
// (it runs every cycle under the engine tests' watchdog cadence).
func TestValidateAllocs(t *testing.T) {
	mesh := topology.New(10, 10)
	n, _, _ := loadNetwork(t, mesh)
	allocs := testing.AllocsPerRun(100, func() {
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Validate allocates %.2f objects/call, want 0", allocs)
	}
}

// TestVCStateSize holds the per-VC record at one 64-byte cache line:
// a router's VC array is the engine's largest structure (4 × NumVCs
// records per router), so a wider record shows up directly in resident
// memory and in the switch phase's cache misses.
func TestVCStateSize(t *testing.T) {
	if got := unsafe.Sizeof(vcState{}); got > 64 {
		t.Errorf("vcState is %d bytes, want <= 64", got)
	}
}

// TestMessagePoolRecycles confirms delivered pooled messages return to
// the arena instead of leaking: after draining, the pool holds every
// message the run acquired.
func TestMessagePoolRecycles(t *testing.T) {
	mesh := topology.New(10, 10)
	n, rng, id := loadNetwork(t, mesh)
	for i := 0; i < 5000 && n.InFlight() > 0; i++ {
		n.Step()
	}
	_ = rng
	if n.InFlight() != 0 {
		t.Fatalf("network did not drain: %d messages in flight", n.InFlight())
	}
	if n.PoolSize() == 0 {
		t.Fatal("drained network has an empty message pool; recycling is broken")
	}
	if got := int64(n.PoolSize()); got > *id {
		t.Fatalf("pool holds %d messages but only %d were acquired", got, *id)
	}
}
