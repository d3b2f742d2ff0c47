package core

import (
	"math/rand"
	"testing"

	"wormmesh/internal/fault"
	"wormmesh/internal/topology"
)

// xyAlg is a minimal deterministic dimension-order algorithm used to
// test the engine in isolation from the real routing package.
type xyAlg struct {
	mesh topology.Topology
	vcs  int
}

func (a xyAlg) Name() string           { return "test-xy" }
func (a xyAlg) NumVCs() int            { return a.vcs }
func (a xyAlg) InitMessage(m *Message) {}
func (a xyAlg) Candidates(m *Message, node topology.NodeID, out *CandidateSet) {
	cur, dst := a.mesh.CoordOf(node), a.mesh.CoordOf(m.Dst)
	d, ok := topology.DirTowards(cur, dst, 0)
	if !ok {
		d, ok = topology.DirTowards(cur, dst, 1)
	}
	if ok {
		out.AddVCs(0, d, 0, a.vcs-1)
	}
}
func (a xyAlg) Advance(m *Message, from topology.NodeID, ch Channel) { m.Hops++ }

// torusXYAlg is xyAlg's torus form: dimension-order routing over the
// topology's minimal-direction choice, with each hop restricted to the
// half of the VC pool selected by the wrap class — the classic
// dateline discipline, so the wrap rings stay deadlock-free.
type torusXYAlg struct {
	topo topology.Topology
	vcs  int
}

func (a torusXYAlg) Name() string           { return "test-torus-xy" }
func (a torusXYAlg) NumVCs() int            { return a.vcs }
func (a torusXYAlg) InitMessage(m *Message) {}
func (a torusXYAlg) Candidates(m *Message, node topology.NodeID, out *CandidateSet) {
	cur, dst := a.topo.CoordOf(node), a.topo.CoordOf(m.Dst)
	dim := 0
	d, ok := a.topo.DirTowards(cur, dst, 0)
	if !ok {
		dim = 1
		d, ok = a.topo.DirTowards(cur, dst, 1)
	}
	if !ok {
		return
	}
	half := a.vcs / 2
	lo := int(a.topo.WrapClass(cur, dst, dim)) * half
	out.AddVCs(0, d, lo, lo+half-1)
}
func (a torusXYAlg) Advance(m *Message, from topology.NodeID, ch Channel) { m.Hops++ }

// stuckAlg grants a first hop and then never offers candidates again,
// wedging every message one hop in — used to exercise stall recovery.
type stuckAlg struct{ xyAlg }

func (a stuckAlg) Candidates(m *Message, node topology.NodeID, out *CandidateSet) {
	if m.Hops == 0 {
		a.xyAlg.Candidates(m, node, out)
	}
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NumVCs = 4
	cfg.Selection = SelectLowestVC
	return cfg
}

func newTestNetwork(t *testing.T, mesh topology.Topology, f *fault.Model, alg Algorithm, cfg Config, seed int64) *Network {
	t.Helper()
	n, err := NewNetwork(mesh, f, alg, cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func offer(t *testing.T, n *Network, id int64, src, dst topology.Coord, length int) *Message {
	t.Helper()
	m := NewMessage(id, n.Topo.ID(src), n.Topo.ID(dst), length)
	m.GenTime = n.Cycle()
	if !n.Offer(m) {
		t.Fatalf("offer refused for msg %d", id)
	}
	return m
}

func stepUntilDelivered(t *testing.T, n *Network, m *Message, limit int) {
	t.Helper()
	for i := 0; i < limit; i++ {
		n.Step()
		if err := n.Validate(); err != nil {
			t.Fatalf("cycle %d: %v", n.Cycle(), err)
		}
		if m.Delivered() {
			return
		}
	}
	t.Fatalf("message %v not delivered within %d cycles", m, limit)
}

func TestSingleMessagePipelineLatency(t *testing.T) {
	mesh := topology.New(6, 6)
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, testConfig(), 1)
	// 3 hops east, 4 flits: wormhole pipelining gives H + L - 1 cycles.
	m := offer(t, n, 1, topology.Coord{X: 0, Y: 0}, topology.Coord{X: 3, Y: 0}, 4)
	stepUntilDelivered(t, n, m, 100)
	if got, want := m.Latency(), int64(3+4-1); got != want {
		t.Errorf("latency = %d, want %d (H+L-1)", got, want)
	}
	if m.NetworkLatency() != m.Latency() {
		t.Errorf("network latency %d != total %d for uncontended message", m.NetworkLatency(), m.Latency())
	}
}

func TestLatencyScalesWithDistanceAndLength(t *testing.T) {
	mesh := topology.New(10, 10)
	for _, tc := range []struct {
		dst    topology.Coord
		length int
	}{
		{topology.Coord{X: 9, Y: 0}, 1},
		{topology.Coord{X: 9, Y: 9}, 1},
		{topology.Coord{X: 1, Y: 0}, 100},
		{topology.Coord{X: 5, Y: 5}, 32},
	} {
		n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, testConfig(), 1)
		m := offer(t, n, 1, topology.Coord{X: 0, Y: 0}, tc.dst, tc.length)
		stepUntilDelivered(t, n, m, 500)
		h := int64(mesh.Distance(topology.Coord{X: 0, Y: 0}, tc.dst))
		if got, want := m.Latency(), h+int64(tc.length)-1; got != want {
			t.Errorf("dst %v len %d: latency = %d, want %d", tc.dst, tc.length, got, want)
		}
	}
}

func TestHeaderBlocksWhenAllVCsBusy(t *testing.T) {
	mesh := topology.New(4, 2)
	cfg := testConfig()
	cfg.NumVCs = 1
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 1}, cfg, 1)
	// Long message A occupies the single VC of the (1,0)->(2,0) link;
	// message B from (1,0), offered after A holds the channel, must
	// wait for A's tail.
	a := offer(t, n, 1, topology.Coord{X: 0, Y: 0}, topology.Coord{X: 3, Y: 0}, 20)
	for i := 0; i < 3; i++ {
		n.Step()
	}
	b := offer(t, n, 2, topology.Coord{X: 1, Y: 0}, topology.Coord{X: 3, Y: 0}, 5)
	for !a.Delivered() || !b.Delivered() {
		n.Step()
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
		if n.Cycle() > 500 {
			t.Fatalf("not delivered: a=%v b=%v", a.Delivered(), b.Delivered())
		}
	}
	if b.Latency() <= int64(2+5-1) {
		t.Errorf("B latency %d shows no blocking behind A", b.Latency())
	}
}

func TestVCMultiplexingSharesLink(t *testing.T) {
	mesh := topology.New(4, 2)
	cfg := testConfig()
	cfg.NumVCs = 2
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 2}, cfg, 1)
	// Two messages share every link eastward on separate VCs: both
	// progress, each at roughly half bandwidth.
	a := offer(t, n, 1, topology.Coord{X: 0, Y: 0}, topology.Coord{X: 3, Y: 0}, 10)
	b := offer(t, n, 2, topology.Coord{X: 0, Y: 0}, topology.Coord{X: 3, Y: 0}, 10)
	for !a.Delivered() || !b.Delivered() {
		n.Step()
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
		if n.Cycle() > 500 {
			t.Fatal("messages not delivered")
		}
	}
	// Serialized at the source injection port (1 flit/cycle), so the
	// pair takes at least 2*L cycles overall.
	last := a.DeliverTime
	if b.DeliverTime > last {
		last = b.DeliverTime
	}
	if last < 20 {
		t.Errorf("both 10-flit messages done at cycle %d, faster than injection bandwidth allows", last)
	}
}

func TestEjectionBandwidthLimits(t *testing.T) {
	mesh := topology.New(3, 3)
	run := func(ejectBW int) int64 {
		cfg := testConfig()
		cfg.EjectBW = ejectBW
		n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, cfg, 1)
		// Two messages from opposite sides converge on the center.
		a := offer(t, n, 1, topology.Coord{X: 0, Y: 1}, topology.Coord{X: 1, Y: 1}, 30)
		b := offer(t, n, 2, topology.Coord{X: 2, Y: 1}, topology.Coord{X: 1, Y: 1}, 30)
		for !a.Delivered() || !b.Delivered() {
			n.Step()
			if n.Cycle() > 1000 {
				t.Fatal("not delivered")
			}
		}
		if a.DeliverTime > b.DeliverTime {
			return a.DeliverTime
		}
		return b.DeliverTime
	}
	if fast, slow := run(2), run(1); fast >= slow {
		t.Errorf("EjectBW=2 finished at %d, not faster than EjectBW=1 at %d", fast, slow)
	}
}

func TestBackpressureWithMinimalBuffers(t *testing.T) {
	mesh := topology.New(8, 2)
	cfg := testConfig()
	cfg.BufDepth = 1
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 2}, cfg, 1)
	m := offer(t, n, 1, topology.Coord{X: 0, Y: 0}, topology.Coord{X: 7, Y: 0}, 50)
	stepUntilDelivered(t, n, m, 2000)
}

func TestOfferRefusedWhenQueueFull(t *testing.T) {
	mesh := topology.New(3, 3)
	cfg := testConfig()
	cfg.MaxSourceQueue = 2
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, cfg, 1)
	src, dst := topology.Coord{X: 0, Y: 0}, topology.Coord{X: 2, Y: 2}
	for i := 0; i < 2; i++ {
		offer(t, n, int64(i+1), src, dst, 10)
	}
	extra := NewMessage(99, mesh.ID(src), mesh.ID(dst), 10)
	extra.GenTime = 0
	if n.Offer(extra) {
		t.Fatal("offer accepted beyond MaxSourceQueue")
	}
	if n.Snapshot().Refused != 1 {
		t.Errorf("Refused = %d, want 1", n.Snapshot().Refused)
	}
}

func TestOfferPanicsOnFaultyEndpoints(t *testing.T) {
	mesh := topology.New(5, 5)
	f, err := fault.New(mesh, []topology.NodeID{mesh.ID(topology.Coord{X: 2, Y: 2})})
	if err != nil {
		t.Fatal(err)
	}
	n := newTestNetwork(t, mesh, f, xyAlg{mesh: mesh, vcs: 4}, testConfig(), 1)
	for _, tc := range []struct{ src, dst topology.Coord }{
		{topology.Coord{X: 2, Y: 2}, topology.Coord{X: 0, Y: 0}},
		{topology.Coord{X: 0, Y: 0}, topology.Coord{X: 2, Y: 2}},
		{topology.Coord{X: 1, Y: 1}, topology.Coord{X: 1, Y: 1}}, // self
	} {
		m := NewMessage(1, mesh.ID(tc.src), mesh.ID(tc.dst), 1)
		m.GenTime = 0
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Offer(%v->%v) did not panic", tc.src, tc.dst)
				}
			}()
			n.Offer(m)
		}()
	}
}

func TestStallRecoveryKillsWedgedMessage(t *testing.T) {
	mesh := topology.New(4, 4)
	cfg := testConfig()
	cfg.MessageStallCycles = 100
	n := newTestNetwork(t, mesh, nil, stuckAlg{xyAlg{mesh: mesh, vcs: 4}}, cfg, 1)
	m := offer(t, n, 1, topology.Coord{X: 0, Y: 0}, topology.Coord{X: 3, Y: 0}, 10)
	for i := 0; i < 3000 && !m.Killed; i++ {
		n.Step()
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Killed {
		t.Fatal("wedged message never killed")
	}
	if n.InFlight() != 0 {
		t.Errorf("InFlight = %d after kill", n.InFlight())
	}
	st := n.Snapshot()
	if st.Killed != 1 {
		t.Errorf("Killed = %d, want 1", st.Killed)
	}
	// All channels must be free again.
	if err := n.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGlobalWatchdogRecovers(t *testing.T) {
	mesh := topology.New(4, 4)
	cfg := testConfig()
	cfg.DeadlockCycles = 50
	cfg.MessageStallCycles = 0 // force the global path
	n := newTestNetwork(t, mesh, nil, stuckAlg{xyAlg{mesh: mesh, vcs: 4}}, cfg, 1)
	m := offer(t, n, 1, topology.Coord{X: 0, Y: 0}, topology.Coord{X: 3, Y: 0}, 10)
	for i := 0; i < 500 && !m.Killed; i++ {
		n.Step()
	}
	if !m.Killed {
		t.Fatal("global watchdog never fired")
	}
	if n.Snapshot().DeadlockEvents == 0 {
		t.Error("DeadlockEvents not counted")
	}
}

func TestMaxHopsLivelockGuard(t *testing.T) {
	mesh := topology.New(4, 4)
	cfg := testConfig()
	cfg.MaxHops = 16
	cfg.MessageStallCycles = 0
	// spinAlg circles the bottom-left 2x2 square forever, never
	// approaching the destination: a synthetic livelock.
	n := newTestNetwork(t, mesh, nil, spinAlg{mesh: mesh}, cfg, 1)
	m := offer(t, n, 1, topology.Coord{X: 0, Y: 0}, topology.Coord{X: 3, Y: 3}, 3)
	for i := 0; i < 5000 && !m.Killed && !m.Delivered(); i++ {
		n.Step()
	}
	if m.Delivered() {
		t.Fatal("spin message unexpectedly delivered")
	}
	if !m.Killed {
		t.Fatal("message exceeding MaxHops not killed")
	}
	if m.Hops <= cfg.MaxHops {
		t.Fatalf("killed at %d hops, guard is %d", m.Hops, cfg.MaxHops)
	}
}

// spinAlg routes clockwise around the bottom-left 2x2 square.
type spinAlg struct{ mesh topology.Topology }

func (a spinAlg) Name() string           { return "test-spin" }
func (a spinAlg) NumVCs() int            { return 1 }
func (a spinAlg) InitMessage(m *Message) {}
func (a spinAlg) Candidates(m *Message, node topology.NodeID, out *CandidateSet) {
	c := a.mesh.CoordOf(node)
	var d topology.Direction
	switch {
	case c.X == 0 && c.Y == 0:
		d = topology.East
	case c.X == 1 && c.Y == 0:
		d = topology.North
	case c.X == 1 && c.Y == 1:
		d = topology.West
	default:
		d = topology.South
	}
	out.Add(0, Channel{Dir: d, VC: 0})
}
func (a spinAlg) Advance(m *Message, from topology.NodeID, ch Channel) { m.Hops++ }

func TestDeterminismAcrossRuns(t *testing.T) {
	mesh := topology.New(6, 6)
	run := func() Stats {
		n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, testConfig(), 7)
		rng := rand.New(rand.NewSource(3))
		id := int64(0)
		for cycle := 0; cycle < 600; cycle++ {
			if rng.Float64() < 0.3 {
				src := topology.NodeID(rng.Intn(mesh.NodeCount()))
				dst := topology.NodeID(rng.Intn(mesh.NodeCount()))
				if src != dst {
					id++
					m := NewMessage(id, src, dst, 8)
					m.GenTime = n.Cycle()
					n.Offer(m)
				}
			}
			n.Step()
		}
		return n.Snapshot()
	}
	a, b := run(), run()
	if a.Delivered != b.Delivered || a.LatencySum != b.LatencySum || a.FlitHops != b.FlitHops {
		t.Errorf("same seeds diverged: %+v vs %+v", a.Delivered, b.Delivered)
	}
}

func TestResetStatsStartsCleanWindow(t *testing.T) {
	mesh := topology.New(5, 5)
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, testConfig(), 1)
	m := offer(t, n, 1, topology.Coord{X: 0, Y: 0}, topology.Coord{X: 4, Y: 0}, 5)
	stepUntilDelivered(t, n, m, 100)
	if n.Snapshot().Delivered != 1 {
		t.Fatal("warm-up delivery not counted before reset")
	}
	n.ResetStats()
	st := n.Snapshot()
	if st.Delivered != 0 || st.Generated != 0 || st.DeliveredFlits != 0 {
		t.Errorf("stats not cleared: %+v", st)
	}
	// A message generated before the reset but delivered after it
	// counts towards throughput but not latency.
	m2 := offer(t, n, 2, topology.Coord{X: 0, Y: 0}, topology.Coord{X: 4, Y: 0}, 5)
	m2.GenTime = n.Cycle() - 1000 // pretend it predates the window
	stepUntilDelivered(t, n, m2, 100)
	st = n.Snapshot()
	if st.Delivered != 1 {
		t.Errorf("post-reset delivery not counted: %+v", st.Delivered)
	}
	if st.LatencyCount != 0 {
		t.Errorf("stale-generation message polluted latency: count=%d", st.LatencyCount)
	}
}

func TestVCUtilizationAccounting(t *testing.T) {
	mesh := topology.New(4, 2)
	cfg := testConfig()
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 1}, cfg, 1)
	m := offer(t, n, 1, topology.Coord{X: 0, Y: 0}, topology.Coord{X: 3, Y: 0}, 10)
	stepUntilDelivered(t, n, m, 200)
	st := n.Snapshot()
	if st.VCBusy[0] == 0 {
		t.Error("VC0 busy time not recorded")
	}
	for v := 1; v < cfg.NumVCs; v++ {
		if st.VCBusy[v] != 0 {
			t.Errorf("unused VC%d shows busy time %d", v, st.VCBusy[v])
		}
	}
	if st.VCAcquired[0] != 3 {
		t.Errorf("VC0 acquisitions = %d, want 3 (one per hop)", st.VCAcquired[0])
	}
	util := st.VCUtilization()
	if util[0] <= 0 || util[0] > 1 {
		t.Errorf("VC0 utilization = %v", util[0])
	}
}

func TestNodeCrossingsCounted(t *testing.T) {
	mesh := topology.New(4, 2)
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 2}, testConfig(), 1)
	m := offer(t, n, 1, topology.Coord{X: 0, Y: 0}, topology.Coord{X: 3, Y: 0}, 10)
	stepUntilDelivered(t, n, m, 200)
	st := n.Snapshot()
	// Source crossbar: 10 injections. Intermediate nodes forward 10
	// flits each. Destination ejects 10.
	for x := 0; x < 4; x++ {
		id := mesh.ID(topology.Coord{X: x, Y: 0})
		if st.NodeCrossings[id] != 10 {
			t.Errorf("node (%d,0) crossings = %d, want 10", x, st.NodeCrossings[id])
		}
	}
	if st.FlitHops != 30 {
		t.Errorf("FlitHops = %d, want 30 (3 links x 10 flits)", st.FlitHops)
	}
	if st.DeliveredFlits != 10 {
		t.Errorf("DeliveredFlits = %d, want 10", st.DeliveredFlits)
	}
}

func TestRandomTrafficInvariantsUnderFaults(t *testing.T) {
	mesh := topology.New(8, 8)
	f, err := fault.New(mesh, []topology.NodeID{
		mesh.ID(topology.Coord{X: 3, Y: 3}), mesh.ID(topology.Coord{X: 4, Y: 3}),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.NumVCs = 6
	cfg.Selection = SelectRandomChannel
	n := newTestNetwork(t, mesh, f, xyAlg{mesh: mesh, vcs: 6}, cfg, 11)
	rng := rand.New(rand.NewSource(5))
	healthy := f.HealthyNodes()
	id := int64(0)
	for cycle := 0; cycle < 800; cycle++ {
		if rng.Float64() < 0.5 {
			src := healthy[rng.Intn(len(healthy))]
			dst := healthy[rng.Intn(len(healthy))]
			// xyAlg is fault-oblivious: only offer pairs whose XY path
			// avoids the fault block (row 3 columns 3-4).
			if src != dst && xyPathClear(mesh, f, src, dst) {
				id++
				m := NewMessage(id, src, dst, 6)
				m.GenTime = n.Cycle()
				n.Offer(m)
			}
		}
		n.Step()
		if err := n.Validate(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	if n.Snapshot().Delivered == 0 {
		t.Fatal("no traffic delivered")
	}
}

// xyPathClear reports whether the dimension-order path between two
// nodes avoids every faulty node.
func xyPathClear(m topology.Topology, f *fault.Model, src, dst topology.NodeID) bool {
	cur := m.CoordOf(src)
	target := m.CoordOf(dst)
	for cur != target {
		d, ok := topology.DirTowards(cur, target, 0)
		if !ok {
			d, _ = topology.DirTowards(cur, target, 1)
		}
		next, _ := m.Neighbor(cur, d)
		if f.IsFaulty(m.ID(next)) {
			return false
		}
		cur = next
	}
	return true
}
