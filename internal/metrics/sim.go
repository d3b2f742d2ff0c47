package metrics

import (
	"wormmesh/internal/core"
)

// Sim is the engine-facing metric set: instantaneous gauges over the
// network's live state plus cumulative counters derived from the
// engine's LiveCounters. The simulation loop calls Sample on a coarse
// cadence (every 1024 cycles, plus once at run end); scrapers read the
// atomics concurrently. Sample costs a handful of loads and atomic
// stores — it reads only scalar engine state and draws nothing from
// the RNG, so enabling metrics does not perturb results.
type Sim struct {
	Cycle          *Gauge
	BusyRouters    *Gauge
	ActiveMessages *Gauge
	ArenaIdle      *Gauge
	QueuedRuns     *Gauge // runs completed by this process (multi-run drivers)

	Generated      *Counter
	Injected       *Counter
	Delivered      *Counter
	DeliveredFlits *Counter
	Killed         *Counter
	KilledGlobal   *Counter // global-watchdog victims
	KilledStall    *Counter // per-message stall kills
	KilledLivelock *Counter // livelock-guard kills (MaxHops)
	DeadlockEvents *Counter

	InjectedRate  *FloatGauge // messages per cycle since the last sample
	DeliveredRate *FloatGauge
	KilledRate    *FloatGauge

	// Interval latency percentiles: upper bounds read from the engine's
	// log2 histogram over the messages DELIVERED since the last sample
	// (-1 until the first delivery of an interval). The registry has no
	// label support, so each quantile is its own series.
	LatencyP50 *FloatGauge
	LatencyP95 *FloatGauge
	LatencyP99 *FloatGauge

	// Hottest links by flits forwarded since the last sample, published
	// only when the network collects link telemetry
	// (core.Config.ChannelTelemetry). Rank k's pair of series carries
	// the link id (node*4+dir) and its flit count, so a scraper can
	// watch congestion migrate without per-link label cardinality.
	HotLinkID    [HotLinks]*Gauge
	HotLinkFlits [HotLinks]*Gauge

	// last sample state (touched only by the sampling goroutine).
	lastCycle int64
	last      core.LiveCounters
	lastHist  core.LatencyHist
	lastFlits []int64 // per-link flit counts at the previous sample
	histDelta core.LatencyHist
}

// HotLinks is how many top links by interval flits Sample publishes.
const HotLinks = 3

// NewSim registers the engine metric set on r.
func NewSim(r *Registry) *Sim {
	return &Sim{
		Cycle:          r.NewGauge("wormmesh_engine_cycle", "Current simulation cycle of the active run."),
		BusyRouters:    r.NewGauge("wormmesh_engine_busy_routers", "Routers holding engine state (dirty-set population)."),
		ActiveMessages: r.NewGauge("wormmesh_engine_active_messages", "Messages generated but not yet delivered or killed."),
		ArenaIdle:      r.NewGauge("wormmesh_engine_arena_idle_messages", "Idle messages in the engine's recycling arena."),
		QueuedRuns:     r.NewGauge("wormmesh_engine_runs_completed", "Simulations completed by this process."),
		Generated:      r.NewCounter("wormmesh_engine_generated_total", "Messages offered and accepted."),
		Injected:       r.NewCounter("wormmesh_engine_injected_total", "Headers that left their source queue."),
		Delivered:      r.NewCounter("wormmesh_engine_delivered_total", "Tails ejected at their destination."),
		DeliveredFlits: r.NewCounter("wormmesh_engine_delivered_flits_total", "Flits consumed at destinations."),
		Killed:         r.NewCounter("wormmesh_engine_killed_total", "Messages torn down by deadlock/livelock recovery."),
		KilledGlobal:   r.NewCounter("wormmesh_engine_killed_global_total", "Recovery victims of the global deadlock watchdog."),
		KilledStall:    r.NewCounter("wormmesh_engine_killed_stall_total", "Per-message stall kills (MessageStallCycles exceeded)."),
		KilledLivelock: r.NewCounter("wormmesh_engine_killed_livelock_total", "Livelock-guard kills (MaxHops exceeded)."),
		DeadlockEvents: r.NewCounter("wormmesh_engine_deadlock_events_total", "Global watchdog firings."),
		InjectedRate:   r.NewFloatGauge("wormmesh_engine_injected_per_cycle", "Injection rate over the last sampling interval."),
		DeliveredRate:  r.NewFloatGauge("wormmesh_engine_delivered_per_cycle", "Delivery rate over the last sampling interval."),
		KilledRate:     r.NewFloatGauge("wormmesh_engine_killed_per_cycle", "Kill rate over the last sampling interval."),
		LatencyP50:     r.NewFloatGauge("wormmesh_engine_latency_p50_cycles", "p50 latency upper bound (log2 buckets) of messages delivered in the last sampling interval."),
		LatencyP95:     r.NewFloatGauge("wormmesh_engine_latency_p95_cycles", "p95 latency upper bound (log2 buckets) of messages delivered in the last sampling interval."),
		LatencyP99:     r.NewFloatGauge("wormmesh_engine_latency_p99_cycles", "p99 latency upper bound (log2 buckets) of messages delivered in the last sampling interval."),
		HotLinkID: [HotLinks]*Gauge{
			r.NewGauge("wormmesh_engine_hot_link_0_id", "Link id (node*4+dir) of the hottest link by interval flits (link telemetry only)."),
			r.NewGauge("wormmesh_engine_hot_link_1_id", "Link id of the second-hottest link by interval flits."),
			r.NewGauge("wormmesh_engine_hot_link_2_id", "Link id of the third-hottest link by interval flits."),
		},
		HotLinkFlits: [HotLinks]*Gauge{
			r.NewGauge("wormmesh_engine_hot_link_0_flits", "Interval flit count of the hottest link (link telemetry only)."),
			r.NewGauge("wormmesh_engine_hot_link_1_flits", "Interval flit count of the second-hottest link."),
			r.NewGauge("wormmesh_engine_hot_link_2_flits", "Interval flit count of the third-hottest link."),
		},
	}
}

// Sample publishes the network's current state. The engine's window
// counters reset at measurement boundaries (and the cycle restarts
// across runs on a reused Runner), so cumulative counters advance by
// clamped deltas: a backwards step re-bases on the new window instead
// of going negative — Prometheus counters must never decrease.
func (s *Sim) Sample(n *core.Network) {
	lc := n.LiveCounters()
	s.Cycle.Set(lc.Cycle)
	s.BusyRouters.Set(int64(n.BusyRouters()))
	s.ActiveMessages.Set(int64(n.InFlight()))
	s.ArenaIdle.Set(int64(n.PoolSize()))

	s.Generated.Add(counterDelta(lc.Generated, s.last.Generated))
	injected := counterDelta(lc.Injected, s.last.Injected)
	s.Injected.Add(injected)
	delivered := counterDelta(lc.Delivered, s.last.Delivered)
	s.Delivered.Add(delivered)
	s.DeliveredFlits.Add(counterDelta(lc.DeliveredFlits, s.last.DeliveredFlits))
	killed := counterDelta(lc.Killed, s.last.Killed)
	s.Killed.Add(killed)
	s.KilledGlobal.Add(counterDelta(lc.KilledGlobal, s.last.KilledGlobal))
	s.KilledStall.Add(counterDelta(lc.KilledStall, s.last.KilledStall))
	s.KilledLivelock.Add(counterDelta(lc.KilledLivelock, s.last.KilledLivelock))
	s.DeadlockEvents.Add(counterDelta(lc.DeadlockEvents, s.last.DeadlockEvents))

	if dc := lc.Cycle - s.lastCycle; dc > 0 {
		s.InjectedRate.Set(float64(injected) / float64(dc))
		s.DeliveredRate.Set(float64(delivered) / float64(dc))
		s.KilledRate.Set(float64(killed) / float64(dc))
	}
	s.lastCycle = lc.Cycle
	s.last = lc

	// Interval latency percentiles: difference the engine's cumulative
	// window histogram per bucket (clamped, like the scalar counters —
	// a measurement-window reset re-bases on the new window).
	hist := n.LiveLatencyHist()
	for b := range hist {
		s.histDelta[b] = counterDelta(hist[b], s.lastHist[b])
	}
	s.lastHist = hist
	s.LatencyP50.Set(float64(s.histDelta.Percentile(50)))
	s.LatencyP95.Set(float64(s.histDelta.Percentile(95)))
	s.LatencyP99.Set(float64(s.histDelta.Percentile(99)))

	s.sampleHotLinks(n)
}

// sampleHotLinks publishes the top-HotLinks links by flits forwarded
// since the previous sample. A no-op (series stay at their defaults)
// when the network collects no link telemetry. The scan is O(links)
// with an insertion into a HotLinks-sized array — allocation-free, as
// the engine-off sampling budget requires.
func (s *Sim) sampleHotLinks(n *core.Network) {
	flits, _, _, _ := n.LinkCounters()
	if flits == nil {
		return
	}
	if len(s.lastFlits) != len(flits) {
		s.lastFlits = make([]int64, len(flits))
	}
	var topID [HotLinks]int64
	var topV [HotLinks]int64
	for i := range topID {
		topID[i] = -1
	}
	for li, cur := range flits {
		d := counterDelta(cur, s.lastFlits[li])
		s.lastFlits[li] = cur
		if d <= topV[HotLinks-1] && topID[HotLinks-1] >= 0 {
			continue
		}
		// Insertion sort into the fixed top list (ties keep the lower
		// link id, scan order being ascending).
		for r := 0; r < HotLinks; r++ {
			if topID[r] < 0 || d > topV[r] {
				copy(topID[r+1:], topID[r:HotLinks-1])
				copy(topV[r+1:], topV[r:HotLinks-1])
				topID[r], topV[r] = int64(li), d
				break
			}
		}
	}
	for r := 0; r < HotLinks; r++ {
		s.HotLinkID[r].Set(topID[r])
		s.HotLinkFlits[r].Set(topV[r])
	}
}

// RunStarted re-bases the delta tracking for a fresh run on a reused
// network (cycle restarts at zero). Call it before the first Sample of
// each run.
func (s *Sim) RunStarted() {
	s.lastCycle = 0
	s.last = core.LiveCounters{}
	s.lastHist = core.LatencyHist{}
	s.lastFlits = nil
}

// RunFinished counts one completed simulation.
func (s *Sim) RunFinished() { s.QueuedRuns.Add(1) }

// counterDelta returns the non-negative advance of a window counter,
// re-basing when the window was reset (cur < last).
func counterDelta(cur, last int64) int64 {
	if d := cur - last; d >= 0 {
		return d
	}
	return cur
}
