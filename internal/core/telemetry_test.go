package core

import (
	"math/rand"
	"testing"

	"wormmesh/internal/fault"
	"wormmesh/internal/topology"
)

// TestLatencyHistPercentile checks the log2 histogram against a
// hand-computed distribution. Samples: 1×1, 2×2, 3×5, 4×600 → buckets
// b1=1, b2=5, b3=1, b10=4 with totals 1/6/7/11 cumulative.
func TestLatencyHistPercentile(t *testing.T) {
	var h LatencyHist
	add := func(lat int64, times int) {
		for i := 0; i < times; i++ {
			h.Add(lat)
		}
	}
	add(1, 1)   // bucket 1 (upper bound 1)
	add(2, 2)   // bucket 2 (upper bound 3)
	add(3, 3)   // bucket 2
	add(5, 1)   // bucket 3 (upper bound 7)
	add(600, 4) // bucket 10 (upper bound 1023)
	if got := h.Total(); got != 11 {
		t.Fatalf("Total = %d, want 11", got)
	}
	// Cumulative counts: b1=1, b2=6, b3=7, b10=11. With need =
	// ceil(p/100*11): p... -> bucket upper bound.
	for _, tc := range []struct {
		p    float64
		want int64
	}{
		{0, 1},     // need clamps to 1 -> first sample, bucket 1
		{9, 1},     // need 1
		{10, 3},    // need 2 -> bucket 2
		{50, 3},    // need 6 -> bucket 2
		{60, 7},    // need 7 -> bucket 3
		{64, 1023}, // need 8 -> bucket 10
		{95, 1023}, // need 11
		{100, 1023},
	} {
		if got := h.Percentile(tc.p); got != tc.want {
			t.Errorf("Percentile(%g) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

// TestLatencyHistEdgeCases covers the empty histogram, zero/negative
// samples, and the clamp of absurdly large latencies into the last
// bucket.
func TestLatencyHistEdgeCases(t *testing.T) {
	var h LatencyHist
	if got := h.Percentile(50); got != -1 {
		t.Errorf("empty Percentile = %d, want -1", got)
	}
	h.Add(0)
	h.Add(-5) // clamped to 0
	if h[0] != 2 {
		t.Errorf("bucket 0 = %d, want 2 (zero and clamped negative)", h[0])
	}
	if got := h.Percentile(50); got != 0 {
		t.Errorf("all-zero Percentile(50) = %d, want 0", got)
	}
	var big LatencyHist
	big.Add(1 << 62)
	if big[LatencyBuckets-1] != 1 {
		t.Errorf("huge sample not clamped into last bucket")
	}
	if got := big.Percentile(99); got != (int64(1)<<(LatencyBuckets-1))-1 {
		t.Errorf("huge Percentile = %d, want last bucket upper bound", got)
	}
}

// TestStatsPercentileFromRun cross-checks Stats.Percentile against the
// exact latencies of a tiny deterministic run: with a handful of
// messages the histogram's bucket bound must dominate the true maximum
// and the p50 bound must cover the true median.
func TestStatsPercentileFromRun(t *testing.T) {
	mesh := topology.New(5, 5)
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, testConfig(), 1)
	for i := 0; i < 6; i++ {
		offer(t, n, int64(i+1), topology.Coord{X: i % 4, Y: 0}, topology.Coord{X: 4, Y: 4}, 4)
	}
	for i := 0; i < 500 && n.InFlight() > 0; i++ {
		n.Step()
	}
	st := n.Snapshot()
	if st.LatencyCount != 6 {
		t.Fatalf("delivered %d messages, want 6", st.LatencyCount)
	}
	p100 := st.Percentile(100)
	if p100 < st.LatencyMax {
		t.Errorf("Percentile(100) = %d below true max %d", p100, st.LatencyMax)
	}
	if p100 >= 2*st.LatencyMax+2 {
		t.Errorf("Percentile(100) = %d not within 2x of max %d (log2 bound)", p100, st.LatencyMax)
	}
	if p50 := st.Percentile(50); p50 < 0 || p50 > p100 {
		t.Errorf("Percentile(50) = %d out of range (0, %d]", p50, p100)
	}
}

// figRingModel builds a fault model with one 2x2 block so the network
// has a proper closed f-ring.
func figRingModel(t *testing.T, mesh topology.Topology) *fault.Model {
	t.Helper()
	f, err := fault.New(mesh, []topology.NodeID{
		mesh.ID(topology.Coord{X: 2, Y: 2}),
		mesh.ID(topology.Coord{X: 3, Y: 2}),
		mesh.ID(topology.Coord{X: 2, Y: 3}),
		mesh.ID(topology.Coord{X: 3, Y: 3}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRingLinkTagging checks the per-link f-ring tags: every tagged
// link connects two consecutive nodes of some ring (in either
// orientation), tags are symmetric, and the count matches the rings'
// adjacent-consecutive pairs.
func TestRingLinkTagging(t *testing.T) {
	mesh := topology.New(8, 8)
	f := figRingModel(t, mesh)
	cfg := testConfig()
	cfg.ChannelTelemetry = true
	n := newTestNetwork(t, mesh, f, xyAlg{mesh: mesh, vcs: 4}, cfg, 1)
	_, _, _, onRing := n.LinkCounters()
	if onRing == nil {
		t.Fatal("ChannelTelemetry on but no ring tags")
	}
	tagged := 0
	for id := topology.NodeID(0); int(id) < mesh.NodeCount(); id++ {
		for d := topology.Direction(0); d < topology.NumDirs; d++ {
			if !onRing[LinkID(id, d)] {
				continue
			}
			tagged++
			nb := mesh.NeighborID(id, d)
			if nb == topology.Invalid {
				t.Fatalf("tagged link %v/%v leaves the mesh", id, d)
			}
			if !onRing[LinkID(nb, d.Opposite())] {
				t.Errorf("ring tag not symmetric: %v/%v tagged, reverse not", id, d)
			}
			if !f.OnAnyRing(id) || !f.OnAnyRing(nb) {
				t.Errorf("tagged link %v->%v has a non-ring endpoint", id, nb)
			}
		}
	}
	// A 2x2 block's f-ring is the surrounding 12-node cycle: 12
	// consecutive pairs, tagged in both orientations.
	if tagged != 24 {
		t.Errorf("tagged %d directional links, want 24 (12-node closed ring)", tagged)
	}
	// Reset onto a fault-free model must clear every tag.
	if err := n.Reset(fault.None(mesh), xyAlg{mesh: mesh, vcs: 4}, rand.New(rand.NewSource(1))); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	_, _, _, onRing = n.LinkCounters()
	for li, tag := range onRing {
		if tag {
			t.Fatalf("link %d still ring-tagged after fault-free Reset", li)
		}
	}
}

// TestLinkCountersConsistency runs traffic with telemetry on and checks
// the structural invariants of the per-link counters: Blocked <= Busy
// per link, flits only on existing links, and total link flits equal to
// the engine's FlitHops (both count inject and link moves, neither the
// ejection into the destination).
func TestLinkCountersConsistency(t *testing.T) {
	mesh := topology.New(6, 6)
	cfg := testConfig()
	cfg.ChannelTelemetry = true
	cfg.MaxSourceQueue = 4
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, cfg, 1)
	rng := rand.New(rand.NewSource(2))
	id := int64(0)
	for i := 0; i < 3000; i++ {
		if rng.Float64() < 0.2 {
			src := topology.NodeID(rng.Intn(mesh.NodeCount()))
			dst := topology.NodeID(rng.Intn(mesh.NodeCount()))
			if src != dst {
				id++
				m := n.AcquireMessage(id, src, dst, 8)
				m.GenTime = n.Cycle()
				n.Offer(m)
			}
		}
		n.Step()
	}
	ls := n.LinkSnapshot()
	if ls == nil {
		t.Fatal("LinkSnapshot returned nil with telemetry on")
	}
	var totalFlits int64
	for id := topology.NodeID(0); int(id) < mesh.NodeCount(); id++ {
		for d := topology.Direction(0); d < topology.NumDirs; d++ {
			li := LinkID(id, d)
			if ls.Blocked[li] > ls.Busy[li] {
				t.Errorf("link %v/%v: blocked %d > busy %d", id, d, ls.Blocked[li], ls.Busy[li])
			}
			if mesh.NeighborID(id, d) == topology.Invalid && (ls.Flits[li] != 0 || ls.Busy[li] != 0) {
				t.Errorf("nonexistent link %v/%v accumulated counts", id, d)
			}
			totalFlits += ls.Flits[li]
		}
	}
	st := n.Snapshot()
	if totalFlits != st.FlitHops {
		t.Errorf("sum of link flits = %d, want FlitHops = %d", totalFlits, st.FlitHops)
	}
	if totalFlits == 0 {
		t.Error("no link flits recorded under load")
	}
}

// TestStepLoadedAllocsTelemetry re-runs the zero-allocation budget with
// ChannelTelemetry enabled: counter recording must stay free of heap
// traffic.
func TestStepLoadedAllocsTelemetry(t *testing.T) {
	var mesh topology.Topology = topology.New(10, 10) // box once, not per call
	cfg := DefaultConfig()
	cfg.NumVCs = 8
	cfg.MaxSourceQueue = 4
	cfg.ChannelTelemetry = true
	n, err := NewNetwork(mesh, nil, xyAlg{mesh: mesh, vcs: 8}, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	id := new(int64)
	for i := 0; i < 6000; i++ {
		stepLoaded(n, mesh, rng, id)
	}
	cushion := make([]*Message, 512)
	for i := range cushion {
		cushion[i] = n.AcquireMessage(0, 0, 1, 16)
	}
	for _, m := range cushion {
		n.recycle(m)
	}
	allocs := testing.AllocsPerRun(200, func() {
		stepLoaded(n, mesh, rng, id)
	})
	if allocs != 0 {
		t.Errorf("telemetry-on loaded Step allocates %.2f objects/cycle, want 0", allocs)
	}
}

// TestLatencyDecompositionSums drives a loaded network with a tracer
// that checks, at every delivery and kill, the partition invariant:
// Queue+Route+Blocked+Moving covers generation to delivery exactly
// (killed messages are checked up to the kill cycle).
func TestLatencyDecompositionSums(t *testing.T) {
	mesh := topology.New(8, 8)
	cfg := testConfig()
	cfg.MaxSourceQueue = 4
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, cfg, 1)
	checker := &decompChecker{t: t}
	n.SetTracer(checker)
	rng := rand.New(rand.NewSource(2))
	id := int64(0)
	for i := 0; i < 4000; i++ {
		if rng.Float64() < 0.3 {
			src := topology.NodeID(rng.Intn(mesh.NodeCount()))
			dst := topology.NodeID(rng.Intn(mesh.NodeCount()))
			if src != dst {
				id++
				m := n.AcquireMessage(id, src, dst, 8)
				m.GenTime = n.Cycle()
				n.Offer(m)
			}
		}
		n.Step()
	}
	for i := 0; i < 2000 && n.InFlight() > 0; i++ {
		n.Step()
	}
	if checker.delivered == 0 {
		t.Fatal("no deliveries checked")
	}
	st := n.Snapshot()
	if st.LatQueueSum+st.LatRouteSum+st.LatBlockedSum+st.LatMovingSum != st.LatencySum {
		t.Errorf("component sums %d+%d+%d+%d != LatencySum %d",
			st.LatQueueSum, st.LatRouteSum, st.LatBlockedSum, st.LatMovingSum, st.LatencySum)
	}
	if st.LatMovingSum == 0 {
		t.Error("no moving cycles attributed under load")
	}
}

type decompChecker struct {
	NopTracer
	t         *testing.T
	delivered int
}

func (c *decompChecker) MessageDelivered(m *Message, cycle int64) {
	c.delivered++
	if got, want := m.LatencyTotal(), m.DeliverTime-m.GenTime; got != want {
		c.t.Errorf("msg#%d decomposition %d (q=%d r=%d b=%d m=%d) != latency %d",
			m.ID, got, m.LatQueue, m.LatRoute, m.LatBlocked, m.LatMoving, want)
	}
	if m.LatQueue < 0 || m.LatRoute < 0 || m.LatBlocked < 0 || m.LatMoving < 0 || m.LatRing < 0 {
		c.t.Errorf("msg#%d has a negative latency component", m.ID)
	}
}

func (c *decompChecker) MessageKilled(m *Message, cause KillCause, cycle int64) {
	if got, want := m.LatencyTotal(), cycle-m.GenTime; got != want {
		c.t.Errorf("killed msg#%d decomposition %d != lifetime %d", m.ID, got, want)
	}
}
