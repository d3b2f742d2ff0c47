package core

import (
	"math/rand"
	"testing"

	"wormmesh/internal/topology"
)

// TestStepIdleAllocs locks in the zero-allocation budget for quiescent
// cycles in both stepping modes: the worklist short-circuit must touch
// nothing, and even the DebugFullScan reference path must scan without
// heap traffic.
func TestStepIdleAllocs(t *testing.T) {
	for _, fullScan := range []bool{false, true} {
		mesh := topology.New(10, 10)
		cfg := DefaultConfig()
		n, err := NewNetwork(mesh, nil, xyAlg{mesh: mesh, vcs: cfg.NumVCs}, cfg, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		DebugFullScan = fullScan
		allocs := testing.AllocsPerRun(500, func() { n.Step() })
		DebugFullScan = false
		if allocs != 0 {
			t.Errorf("idle Step (fullScan=%v) allocates %.2f objects/cycle, want 0", fullScan, allocs)
		}
	}
}

// TestQuiescentShortCircuit drives a network to quiescence and checks
// that the dirty set is empty, that idle cycles still advance the clock
// and keep the structural invariants, and that traffic offered after an
// idle stretch wakes the engine back up.
func TestQuiescentShortCircuit(t *testing.T) {
	mesh := topology.New(10, 10)
	n, _, _ := loadNetwork(t, mesh)
	for i := 0; i < 5000 && n.InFlight() > 0; i++ {
		n.Step()
	}
	if n.InFlight() != 0 {
		t.Fatalf("network did not drain: %d in flight", n.InFlight())
	}
	if n.BusyRouters() != 0 {
		t.Fatalf("drained network has %d busy routers, want 0", n.BusyRouters())
	}
	before := n.Cycle()
	for i := 0; i < 100; i++ {
		n.Step()
	}
	if got := n.Cycle(); got != before+100 {
		t.Fatalf("idle cycles advanced clock to %d, want %d", got, before+100)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// Wake-up: a fresh offer must re-enter the dirty set and deliver.
	m := NewMessage(n.NextMessageID(), 0, topology.NodeID(mesh.NodeCount()-1), 4)
	m.GenTime = n.Cycle()
	if !n.Offer(m) {
		t.Fatal("offer refused on an empty network")
	}
	if n.BusyRouters() == 0 {
		t.Fatal("offer did not mark the source router busy")
	}
	for i := 0; i < 2000 && !m.Delivered(); i++ {
		n.Step()
	}
	if !m.Delivered() {
		t.Fatal("message offered after idle stretch was never delivered")
	}
	if n.BusyRouters() != 0 {
		t.Fatalf("network drained again but %d routers stay busy", n.BusyRouters())
	}
}

// TestBusyMembershipLifecycle walks one message through the engine and
// checks dirty-set membership at each stage against the invariant
// busy(r) ⇔ r holds engine state. Validate re-checks the same
// equivalence globally; this test documents WHO is expected to be busy.
func TestBusyMembershipLifecycle(t *testing.T) {
	mesh := topology.New(4, 4)
	cfg := DefaultConfig()
	cfg.NumVCs = 2
	n, err := NewNetwork(mesh, nil, xyAlg{mesh: mesh, vcs: 2}, cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if n.BusyRouters() != 0 {
		t.Fatalf("fresh network has %d busy routers", n.BusyRouters())
	}
	src, dst := topology.NodeID(0), topology.NodeID(3) // same row, 3 hops east
	m := NewMessage(1, src, dst, 3)
	m.GenTime = 0
	n.Offer(m)
	if !n.isBusy(src) || n.BusyRouters() != 1 {
		t.Fatalf("after Offer: busy(src)=%v count=%d, want true/1", n.isBusy(src), n.BusyRouters())
	}
	// One step: routing claims the first-hop VC of router 1.
	n.Step()
	if !n.isBusy(src) || !n.isBusy(1) {
		t.Fatalf("after first step: busy(src)=%v busy(next)=%v, want both", n.isBusy(src), n.isBusy(1))
	}
	for i := 0; i < 200 && !m.Delivered(); i++ {
		n.Step()
		if err := n.Validate(); err != nil {
			t.Fatalf("cycle %d: %v", n.Cycle(), err)
		}
	}
	if !m.Delivered() {
		t.Fatal("message never delivered")
	}
	if n.BusyRouters() != 0 {
		t.Fatalf("after delivery: %d routers busy, want 0", n.BusyRouters())
	}
}

// TestWorklistReset checks that Network.Reset empties the dirty set
// along with the rest of the engine state, so a reused network does not
// inherit phantom busy routers from the previous run.
func TestWorklistReset(t *testing.T) {
	mesh := topology.New(6, 6)
	cfg := DefaultConfig()
	cfg.NumVCs = 2
	cfg.MaxSourceQueue = 4
	alg := xyAlg{mesh: mesh, vcs: 2}
	n, err := NewNetwork(mesh, nil, alg, cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		m := n.AcquireMessage(int64(i+1), topology.NodeID(i), topology.NodeID(35-i), 8)
		m.GenTime = 0
		n.Offer(m)
	}
	for i := 0; i < 10; i++ {
		n.Step()
	}
	if n.BusyRouters() == 0 {
		t.Fatal("mid-run network should have busy routers")
	}
	if err := n.Reset(nil, alg, rand.New(rand.NewSource(4))); err != nil {
		t.Fatal(err)
	}
	if n.BusyRouters() != 0 {
		t.Fatalf("after Reset: %d routers busy, want 0", n.BusyRouters())
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}
