package core

import (
	"math/rand"
	"testing"

	"wormmesh/internal/topology"
)

// TestStepLoadedAllocsSampler locks in the sampler's steady-state
// allocation budget: once Start has sized the ring, a loaded Step plus
// a sampler Tick — including the cycles where a window actually closes
// — must not touch the heap.
func TestStepLoadedAllocsSampler(t *testing.T) {
	var mesh topology.Topology = topology.New(10, 10)
	n, rng, id := loadNetwork(t, mesh)
	s := NewWindowSampler(64, 32)
	s.Start(n, 0)
	allocs := testing.AllocsPerRun(500, func() {
		stepLoaded(n, mesh, rng, id)
		s.Tick(n)
	})
	if allocs != 0 {
		t.Errorf("loaded Step with sampler allocates %.2f objects/cycle, want 0", allocs)
	}
	if s.Seq() < 5 {
		t.Fatalf("sampler closed %d windows during the measured region, want several", s.Seq())
	}
}

// TestStepLoadedAllocsSamplerTelemetry is the same budget with link
// telemetry enabled, so the per-link busy-fraction rows (the slab
// subslices) are exercised on the measured path too.
func TestStepLoadedAllocsSamplerTelemetry(t *testing.T) {
	var mesh topology.Topology = topology.New(10, 10)
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
	s := NewWindowSampler(64, 32)
	s.Start(n, 0)
	allocs := testing.AllocsPerRun(500, func() {
		stepLoaded(n, mesh, rng, id)
		s.Tick(n)
	})
	if allocs != 0 {
		t.Errorf("loaded Step with sampler+telemetry allocates %.2f objects/cycle, want 0", allocs)
	}
	last, ok := s.Latest()
	if !ok {
		t.Fatal("no snapshot produced")
	}
	if len(last.LinkBusy) != n.NumLinks() {
		t.Fatalf("LinkBusy rows have %d entries, want %d", len(last.LinkBusy), n.NumLinks())
	}
	busy := 0
	for _, b := range last.LinkBusy {
		if b > 0 {
			busy++
		}
	}
	if busy == 0 {
		t.Error("loaded mesh recorded no busy links in the last window")
	}
	if last.BlockedLinks == 0 {
		t.Log("no blocked links in the last window (load may be below contention)")
	}
}

// TestWindowSamplerSeries checks the snapshot series semantics: dense
// sequence numbers, contiguous [Start, End) ranges, delta consistency
// against the network's cumulative counters, and Since's replay and
// ring-eviction behavior.
func TestWindowSamplerSeries(t *testing.T) {
	var mesh topology.Topology = topology.New(8, 8)
	cfg := DefaultConfig()
	cfg.NumVCs = 8
	cfg.MaxSourceQueue = 4
	n, err := NewNetwork(mesh, nil, xyAlg{mesh: mesh, vcs: 8}, cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	id := new(int64)
	s := NewWindowSampler(50, 4) // tiny ring to force eviction
	s.Start(n, 1000)
	for i := 0; i < 1000; i++ {
		stepLoaded(n, mesh, rng, id)
		s.Tick(n)
	}
	if got, want := s.Seq(), int64(20); got != want {
		t.Fatalf("Seq = %d, want %d", got, want)
	}
	all := s.Since(0)
	if len(all) != 4 {
		t.Fatalf("Since(0) returned %d snapshots with a 4-slot ring, want 4", len(all))
	}
	for i, w := range all {
		if w.Seq != int64(16+i) {
			t.Errorf("snapshot %d has Seq %d, want %d", i, w.Seq, 16+i)
		}
		if w.End-w.Start != 50 {
			t.Errorf("snapshot %d spans [%d,%d), want 50 cycles", i, w.Start, w.End)
		}
		if i > 0 && w.Start != all[i-1].End {
			t.Errorf("snapshot %d starts at %d, previous ended at %d", i, w.Start, all[i-1].End)
		}
	}
	if got := s.Since(19); len(got) != 1 || got[0].Seq != 19 {
		t.Errorf("Since(19) = %d snapshots (first seq %v), want exactly the last", len(got), got)
	}
	if got := s.Since(20); got != nil {
		t.Errorf("Since(Seq) = %v, want nil", got)
	}
	meta := s.Meta()
	if meta.WindowCycles != 50 || meta.TotalCycles != 1000 || meta.HealthyNodes != 64 {
		t.Errorf("Meta = %+v, want window 50, total 1000, healthy 64", meta)
	}

	// Fresh sampler with a roomy ring: the full series' deltas must sum
	// to the cumulative counters accumulated while it watched.
	s2 := NewWindowSampler(50, 64)
	s2.Start(n, 0)
	before := n.LiveCounters()
	for i := 0; i < 500; i++ {
		stepLoaded(n, mesh, rng, id)
		s2.Tick(n)
	}
	s2.Flush(n)
	after := n.LiveCounters()
	var delivered, flits int64
	for _, w := range s2.Since(0) {
		delivered += w.Delivered
		flits += w.DeliveredFlits
	}
	if want := after.Delivered - before.Delivered; delivered != want {
		t.Errorf("window Delivered deltas sum to %d, cumulative counters moved %d", delivered, want)
	}
	if want := after.DeliveredFlits - before.DeliveredFlits; flits != want {
		t.Errorf("window flit deltas sum to %d, cumulative counters moved %d", flits, want)
	}
}

// TestWindowSamplerResetClamp checks the warm-up cut behavior: a
// mid-window ResetStats zeroes the live counters, and the next window's
// deltas clamp to the post-reset tally instead of going negative.
func TestWindowSamplerResetClamp(t *testing.T) {
	var mesh topology.Topology = topology.New(8, 8)
	cfg := DefaultConfig()
	cfg.NumVCs = 8
	cfg.MaxSourceQueue = 4
	n, err := NewNetwork(mesh, nil, xyAlg{mesh: mesh, vcs: 8}, cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	id := new(int64)
	s := NewWindowSampler(100, 16)
	s.Start(n, 0)
	for i := 0; i < 250; i++ {
		stepLoaded(n, mesh, rng, id)
		s.Tick(n)
		if i == 149 {
			n.ResetStats() // mid-window warm-up cut
		}
	}
	for _, w := range s.Since(0) {
		if w.Delivered < 0 || w.DeliveredFlits < 0 || w.Generated < 0 || w.AvgLatency < 0 {
			t.Fatalf("negative delta after ResetStats: %+v", w)
		}
	}
}

func TestWindowSnapshotThroughput(t *testing.T) {
	w := WindowSnapshot{Start: 0, End: 1000, DeliveredFlits: 5000}
	if got := w.Throughput(100); got != 0.05 {
		t.Errorf("throughput = %v, want 0.05", got)
	}
	if got := w.Throughput(0); got != 0 {
		t.Errorf("zero-node throughput = %v", got)
	}
	zero := WindowSnapshot{Start: 5, End: 5}
	if zero.Throughput(100) != 0 {
		t.Error("zero-length window throughput nonzero")
	}
}
