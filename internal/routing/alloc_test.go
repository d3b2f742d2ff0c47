package routing

import (
	"math/rand"
	"runtime"
	"testing"

	"wormmesh/internal/core"
	"wormmesh/internal/fault"
	"wormmesh/internal/topology"
)

// TestStepLoadedFaultedAllocFree extends the engine's zero-alloc
// steady-state budget (internal/core's alloc tests, which run
// fault-free) to a FAULTED mesh under ring traffic: with the
// center-block pattern live, the Boppana–Chalasani wrapper's
// canProgress and orientation scans, its ring-channel Add loops (on
// reused scratch slices) and the message arena together must keep a
// warmed offer+step cycle at zero heap allocations. It lives in this
// package rather than internal/core because constructing the fortified
// algorithms imports routing, which imports core.
func TestStepLoadedFaultedAllocFree(t *testing.T) {
	mesh := topology.New(10, 10)
	ids, err := fault.NamedPattern("center-block", mesh)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fault.New(mesh, ids)
	if err != nil {
		t.Fatal(err)
	}
	healthy := f.HealthyNodes()
	for _, name := range []string{"Nbc", "Duato-Nbc", "Boura-FT"} {
		t.Run(name, func(t *testing.T) {
			alg := MustNew(name, f, 24)
			cfg := core.DefaultConfig()
			cfg.MaxSourceQueue = 4
			cfg.MaxHops = int32(16 * mesh.Diameter())
			n, err := core.NewNetwork(mesh, f, alg, cfg, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			rng := rand.New(rand.NewSource(2))
			id := int64(0)
			step := func() {
				for k := 0; k < 2; k++ { // busy mesh, steady f-ring traffic
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
			// Let the arena, scratch buffers and source queues reach
			// their steady-state capacity, with a cushion for the
			// occasional watchdog scan growth.
			for i := 0; i < 6000; i++ {
				step()
			}
			if n.InFlight() == 0 {
				t.Fatal("warmup left no traffic in flight; the budget would measure an idle network")
			}
			allocs := testing.AllocsPerRun(2000, step)
			if allocs != 0 {
				t.Errorf("%s: %.2f allocs per faulted loaded cycle, want 0", name, allocs)
			}
		})
	}
}

// TestRoutingNewAllocBudget bounds what fortification costs to build:
// all eleven algorithms on a 10×10 mesh with 10 random faults must
// allocate under 64 KiB together. Construction keeps only the fault
// model's rings and per-class VC lists, so a sweep can build routing
// per run; a per-(node, destination) table would cost megabytes here.
func TestRoutingNewAllocBudget(t *testing.T) {
	mesh := topology.New(10, 10)
	f, err := fault.Generate(mesh, 10, rand.New(rand.NewSource(1)), fault.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const reps = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		for _, name := range AlgorithmNames {
			if _, err := New(name, f, 24); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	const budget = 64 << 10
	if per := (after.TotalAlloc - before.TotalAlloc) / reps; per >= budget {
		t.Errorf("building all %d algorithms allocates %d B, budget %d B", len(AlgorithmNames), per, budget)
	} else {
		t.Logf("building all %d algorithms allocates %d B", len(AlgorithmNames), per)
	}
}
