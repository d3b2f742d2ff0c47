package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// WindowSnapshot is one fixed-width slice of a run's time-resolved
// telemetry: the counter deltas accumulated over [Start, End) plus the
// instantaneous backlog at the window's close. Snapshots are produced
// by a WindowSampler on the simulation goroutine and read concurrently
// by dashboards and SSE streams.
type WindowSnapshot struct {
	// Seq numbers snapshots from 0 across the whole run; it never
	// wraps, so a reader that remembers the last Seq it saw can ask
	// Since(seq) for exactly the windows it missed (modulo ring
	// eviction).
	Seq int64 `json:"seq"`
	// Start and End delimit the window in engine cycles.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// WallNanos is the wall-clock time the window closed at
	// (UnixNano). It is recorded, never consumed by the engine, so
	// sampling stays deterministic; readers use it for ETA and
	// cycles-per-second rates.
	WallNanos int64 `json:"wall_nanos"`

	// Counter deltas over the window. They are computed from the
	// engine's live measurement-window counters, so a window that
	// straddles ResetStats (the warm-up cut) counts only the tally
	// since the reset.
	Generated      int64 `json:"generated"`
	Injected       int64 `json:"injected"`
	Delivered      int64 `json:"delivered"`
	DeliveredFlits int64 `json:"delivered_flits"`
	Killed         int64 `json:"killed"`
	// KilledGlobal, KilledStall and KilledLivelock partition Killed by
	// recovery cause; DeadlockEvents counts global watchdog firings.
	KilledGlobal   int64 `json:"killed_global"`
	KilledStall    int64 `json:"killed_stall"`
	KilledLivelock int64 `json:"killed_livelock"`
	DeadlockEvents int64 `json:"deadlock_events"`

	// InFlight is the number of messages in the network when the
	// window closed; BusyRouters the routers holding engine state and
	// ArenaIdle the idle messages in the engine's recycling arena.
	InFlight    int `json:"in_flight"`
	BusyRouters int `json:"busy_routers"`
	ArenaIdle   int `json:"arena_idle"`
	// BlockedLinks counts directional physical links that spent at
	// least one cycle blocked during the window. It requires
	// Config.ChannelTelemetry; zero otherwise.
	BlockedLinks int `json:"blocked_links"`
	// AvgLatency is the mean latency (cycles) of the measured messages
	// delivered inside the window; zero when none were.
	AvgLatency float64 `json:"avg_latency"`
	// LatencyP50/P95/P99 are upper bounds (LatencyHist.Percentile, log2
	// buckets) on the latency of the measured messages delivered inside
	// the window; -1 when none were.
	LatencyP50 int64 `json:"latency_p50"`
	LatencyP95 int64 `json:"latency_p95"`
	LatencyP99 int64 `json:"latency_p99"`

	// HotLinks ranks the window's busiest links by flits forwarded,
	// ties to the lower LinkID. It requires Config.ChannelTelemetry;
	// zero otherwise.
	HotLinks [HotLinkRanks]HotLink `json:"hot_links"`

	// LinkBusy holds per-link busy fractions for the window,
	// downsampled to 8 bits (0 = idle, 255 = busy every cycle),
	// indexed by LinkID. Nil when Config.ChannelTelemetry is off.
	// The slice aliases the sampler's ring slab inside the sampler;
	// copies handed out by Since own their storage.
	LinkBusy []uint8 `json:"link_busy,omitempty"`
}

// HotLinkRanks is how many of a window's busiest links a snapshot
// ranks.
const HotLinkRanks = 3

// HotLink is one ranked link of a window: its LinkID and the flits it
// forwarded inside the window.
type HotLink struct {
	ID    int64 `json:"id"`
	Flits int64 `json:"flits"`
}

// Throughput returns the window's accepted traffic in flits per node
// per cycle.
func (w WindowSnapshot) Throughput(healthyNodes int) float64 {
	cycles := w.End - w.Start
	if cycles == 0 || healthyNodes == 0 {
		return 0
	}
	return float64(w.DeliveredFlits) / float64(cycles) / float64(healthyNodes)
}

// WindowSampler is the time-resolved telemetry observer: every
// `window` cycles it snapshots the engine's live counters into a
// preallocated ring of WindowSnapshots. It is the one place engine
// counters are differenced: dashboards, SSE streams, Chrome counter
// tracks and the Prometheus bridge all read its windows. Like every
// observer it is strictly read-only and RNG-free — Stats are
// bit-identical with the sampler attached or not (locked in by the
// sampler golden test) — and, once Start has sized its buffers, a Tick
// performs zero heap allocations (locked in by
// TestStepLoadedAllocsSampler).
//
// The writer (the simulation goroutine) calls Start once per run and
// Tick once per cycle; readers call Since/Latest/Meta from any
// goroutine. The boundary check in Tick is lock-free; only the actual
// window close (one in `window` calls) takes the mutex.
type WindowSampler struct {
	window   int64
	capacity int

	// seq is the number of snapshots ever produced; the ring holds the
	// most recent min(seq, capacity) of them. Atomic so Tick can
	// publish and readers can poll without taking the mutex.
	seq atomic.Int64

	mu    sync.Mutex
	snaps []WindowSnapshot // ring, len == capacity
	slab  []uint8          // LinkBusy backing store, capacity×links

	// Writer-only state (no locking: single writer).
	links       int
	prevCyc     int64
	prev        LiveCounters
	prevHist    LatencyHist
	prevFlits   []int64
	prevBusy    []int64
	prevBlocked []int64
	healthy     int
	startWall   int64
	startCycle  int64
	totalCycles int64
}

// DefaultWindowCycles is the window width services use when the caller
// does not pick one: fine enough to resolve warm-up transients on the
// paper's 30 000-cycle runs, coarse enough that a ring of a few
// thousand covers any realistic run.
const DefaultWindowCycles = 512

// NewWindowSampler returns a sampler that closes a window every
// `window` cycles and retains the most recent `capacity` snapshots.
// Non-positive arguments fall back to DefaultWindowCycles and 4096.
func NewWindowSampler(window int64, capacity int) *WindowSampler {
	if window <= 0 {
		window = DefaultWindowCycles
	}
	if capacity <= 0 {
		capacity = 4096
	}
	return &WindowSampler{window: window, capacity: capacity}
}

// Window returns the configured window width in cycles.
func (s *WindowSampler) Window() int64 { return s.window }

// Start binds the sampler to a network at the beginning of a run:
// sizes the ring and per-link scratch for the network's link count,
// zeroes the counter baselines, and resets Seq. Allocation happens
// here, once, so every subsequent Tick is allocation-free. totalCycles
// is the run's planned length (warm-up + measurement), recorded for
// readers computing progress and ETA; pass 0 when unknown.
func (s *WindowSampler) Start(n *Network, totalCycles int64) {
	links := 0
	if n.LinkTelemetryEnabled() {
		links = n.NumLinks()
	}
	s.mu.Lock()
	if len(s.snaps) != s.capacity {
		s.snaps = make([]WindowSnapshot, s.capacity)
	}
	if links > 0 && len(s.slab) != s.capacity*links {
		s.slab = make([]uint8, s.capacity*links)
	}
	s.links = links
	if links > 0 {
		if len(s.prevBusy) != links {
			s.prevFlits = make([]int64, links)
			s.prevBusy = make([]int64, links)
			s.prevBlocked = make([]int64, links)
		}
		flits, busy, blocked, _ := n.LinkCounters()
		copy(s.prevFlits, flits)
		copy(s.prevBusy, busy)
		copy(s.prevBlocked, blocked)
	}
	s.prevCyc = n.Cycle()
	s.prev = n.LiveCounters()
	s.prevHist = n.stats.LatencyHist
	s.healthy = n.Faults.HealthyCount()
	s.startWall = time.Now().UnixNano()
	s.startCycle = n.Cycle()
	s.totalCycles = totalCycles
	s.mu.Unlock()
	s.seq.Store(0)
}

// Tick advances the sampler one cycle; call it after Network.Step. It
// closes a window once `window` cycles have elapsed since the last
// close and reports whether it did. The off-boundary path is a single
// comparison; the boundary path reads the live counters, computes
// deltas, and publishes one snapshot — still allocation-free.
func (s *WindowSampler) Tick(n *Network) bool {
	if n.Cycle()-s.prevCyc < s.window {
		return false
	}
	s.close(n)
	return true
}

// Flush closes a final, possibly short window if any cycles have
// elapsed since the last close — so the tail of a run (or an
// early-stopped measurement) is not lost. Call it once after the run
// loop.
func (s *WindowSampler) Flush(n *Network) {
	if n.Cycle() == s.prevCyc {
		return
	}
	s.close(n)
}

func (s *WindowSampler) close(n *Network) {
	if n.statsStart >= s.prevCyc {
		// The measurement window restarted (ResetStats) since the last
		// close, so the live counters count from zero again.
		s.prev = LiveCounters{}
		s.prevHist = LatencyHist{}
		clear(s.prevFlits)
		clear(s.prevBusy)
		clear(s.prevBlocked)
	}
	cur := n.LiveCounters()
	seq := s.seq.Load()
	slot := int(seq % int64(s.capacity))

	s.mu.Lock()
	w := &s.snaps[slot]
	w.Seq = seq
	w.Start = s.prevCyc
	w.End = n.Cycle()
	w.WallNanos = time.Now().UnixNano()
	w.Generated = cur.Generated - s.prev.Generated
	w.Injected = cur.Injected - s.prev.Injected
	w.Delivered = cur.Delivered - s.prev.Delivered
	w.DeliveredFlits = cur.DeliveredFlits - s.prev.DeliveredFlits
	w.Killed = cur.Killed - s.prev.Killed
	w.KilledGlobal = cur.KilledGlobal - s.prev.KilledGlobal
	w.KilledStall = cur.KilledStall - s.prev.KilledStall
	w.KilledLivelock = cur.KilledLivelock - s.prev.KilledLivelock
	w.DeadlockEvents = cur.DeadlockEvents - s.prev.DeadlockEvents
	w.InFlight = n.InFlight()
	w.BusyRouters = n.BusyRouters()
	w.ArenaIdle = n.PoolSize()
	w.AvgLatency = 0
	if dc := cur.LatencyCount - s.prev.LatencyCount; dc > 0 {
		w.AvgLatency = float64(cur.LatencySum-s.prev.LatencySum) / float64(dc)
	}
	var hist LatencyHist
	for b, c := range n.stats.LatencyHist {
		hist[b] = c - s.prevHist[b]
	}
	s.prevHist = n.stats.LatencyHist
	w.LatencyP50 = hist.Percentile(50)
	w.LatencyP95 = hist.Percentile(95)
	w.LatencyP99 = hist.Percentile(99)
	w.BlockedLinks = 0
	w.HotLinks = [HotLinkRanks]HotLink{}
	w.LinkBusy = nil
	if s.links > 0 {
		flits, busy, blocked, _ := n.LinkCounters()
		cycles := w.End - w.Start
		row := s.slab[slot*s.links : (slot+1)*s.links]
		hot := &w.HotLinks
		for r := range hot {
			hot[r].ID = -1
		}
		for i := 0; i < s.links; i++ {
			// Insertion into the fixed top list; the ascending scan
			// keeps ties on the lower link id.
			df := flits[i] - s.prevFlits[i]
			for r := range hot {
				if hot[r].ID < 0 || df > hot[r].Flits {
					copy(hot[r+1:], hot[r:HotLinkRanks-1])
					hot[r] = HotLink{ID: int64(i), Flits: df}
					break
				}
			}
			s.prevFlits[i] = flits[i]
			db := busy[i] - s.prevBusy[i]
			frac := db * 255 / cycles
			if frac > 255 {
				frac = 255
			}
			row[i] = uint8(frac)
			if blocked[i] > s.prevBlocked[i] {
				w.BlockedLinks++
			}
			s.prevBusy[i] = busy[i]
			s.prevBlocked[i] = blocked[i]
		}
		w.LinkBusy = row
	}
	s.prev = cur
	s.prevCyc = n.Cycle()
	s.mu.Unlock()
	s.seq.Store(seq + 1)
}

// Seq returns the number of snapshots produced so far; snapshot
// sequence numbers run [0, Seq). Safe from any goroutine.
func (s *WindowSampler) Seq() int64 { return s.seq.Load() }

// Meta describes the sampler's run for readers: window width, healthy
// node count (the throughput denominator), planned total cycles, and
// the wall-clock and cycle origin of the run.
type SamplerMeta struct {
	WindowCycles int64 `json:"window_cycles"`
	HealthyNodes int   `json:"healthy_nodes"`
	TotalCycles  int64 `json:"total_cycles"`
	StartCycle   int64 `json:"start_cycle"`
	WallStart    int64 `json:"wall_start"`
}

// Meta returns the run description captured at Start.
func (s *WindowSampler) Meta() SamplerMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SamplerMeta{
		WindowCycles: s.window,
		HealthyNodes: s.healthy,
		TotalCycles:  s.totalCycles,
		StartCycle:   s.startCycle,
		WallStart:    s.startWall,
	}
}

// Since returns copies of every retained snapshot with Seq >= after,
// oldest first. Snapshots evicted from the ring are silently skipped
// (the reader sees a Seq gap). The copies own their LinkBusy storage,
// so they remain valid after the ring slot is overwritten. Safe from
// any goroutine; the caller owns the returned slice.
func (s *WindowSampler) Since(after int64) []WindowSnapshot {
	seq := s.seq.Load()
	if after >= seq {
		return nil
	}
	lo := seq - int64(s.capacity)
	if lo < 0 {
		lo = 0
	}
	if after > lo {
		lo = after
	}
	out := make([]WindowSnapshot, 0, seq-lo)
	var busy []uint8
	if s.links > 0 {
		busy = make([]uint8, int(seq-lo)*s.links)
	}
	s.mu.Lock()
	// Re-check under the lock: the writer may have advanced past the
	// slots we planned to read. Anything still >= lo is intact because
	// a slot is rewritten only when its Seq advances by `capacity`.
	hi := s.seq.Load()
	if lo < hi-int64(s.capacity) {
		lo = hi - int64(s.capacity)
	}
	for q := lo; q < seq; q++ {
		w := s.snaps[q%int64(s.capacity)]
		if w.LinkBusy != nil {
			i := len(out)
			dst := busy[i*s.links : (i+1)*s.links]
			copy(dst, w.LinkBusy)
			w.LinkBusy = dst
		}
		out = append(out, w)
	}
	s.mu.Unlock()
	return out
}

// Latest returns the most recent snapshot (a copy owning its LinkBusy)
// and true, or a zero snapshot and false when none has been produced.
func (s *WindowSampler) Latest() (WindowSnapshot, bool) {
	seq := s.seq.Load()
	if seq == 0 {
		return WindowSnapshot{}, false
	}
	ws := s.Since(seq - 1)
	if len(ws) == 0 {
		return WindowSnapshot{}, false
	}
	return ws[len(ws)-1], true
}
