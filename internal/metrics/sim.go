package metrics

import (
	"time"

	"wormmesh/internal/core"
)

// Sim is the engine-facing metric set. It folds a run's window series
// (core.WindowSampler) into Prometheus series: gauges take each
// window's close-time values, counters advance by its deltas, and the
// rates, latency percentiles and hot links describe the latest window
// alone. Scrapers read the atomics concurrently.
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

	InjectedRate  *FloatGauge // messages per cycle over the latest window
	DeliveredRate *FloatGauge
	KilledRate    *FloatGauge

	// Window latency percentiles: upper bounds read from the engine's
	// log2 histogram over the messages delivered in the latest window
	// (-1 when none were). The registry has no label support, so each
	// quantile is its own series.
	LatencyP50 *FloatGauge
	LatencyP95 *FloatGauge
	LatencyP99 *FloatGauge

	// Hottest links by flits forwarded in the latest window, published
	// only when the network collects link telemetry
	// (core.Config.ChannelTelemetry). Rank k's pair of series carries
	// the link id (node*4+dir) and its flit count, so a scraper can
	// watch congestion migrate without per-link label cardinality.
	HotLinkID    [core.HotLinkRanks]*Gauge
	HotLinkFlits [core.HotLinkRanks]*Gauge
}

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
		HotLinkID: [core.HotLinkRanks]*Gauge{
			r.NewGauge("wormmesh_engine_hot_link_0_id", "Link id (node*4+dir) of the hottest link by interval flits (link telemetry only)."),
			r.NewGauge("wormmesh_engine_hot_link_1_id", "Link id of the second-hottest link by interval flits."),
			r.NewGauge("wormmesh_engine_hot_link_2_id", "Link id of the third-hottest link by interval flits."),
		},
		HotLinkFlits: [core.HotLinkRanks]*Gauge{
			r.NewGauge("wormmesh_engine_hot_link_0_flits", "Interval flit count of the hottest link (link telemetry only)."),
			r.NewGauge("wormmesh_engine_hot_link_1_flits", "Interval flit count of the second-hottest link."),
			r.NewGauge("wormmesh_engine_hot_link_2_flits", "Interval flit count of the third-hottest link."),
		},
	}
}

// Observe folds one window into the series.
func (s *Sim) Observe(w core.WindowSnapshot) {
	s.Cycle.Set(w.End)
	s.BusyRouters.Set(int64(w.BusyRouters))
	s.ActiveMessages.Set(int64(w.InFlight))
	s.ArenaIdle.Set(int64(w.ArenaIdle))

	s.Generated.Add(w.Generated)
	s.Injected.Add(w.Injected)
	s.Delivered.Add(w.Delivered)
	s.DeliveredFlits.Add(w.DeliveredFlits)
	s.Killed.Add(w.Killed)
	s.KilledGlobal.Add(w.KilledGlobal)
	s.KilledStall.Add(w.KilledStall)
	s.KilledLivelock.Add(w.KilledLivelock)
	s.DeadlockEvents.Add(w.DeadlockEvents)

	if dc := w.End - w.Start; dc > 0 {
		s.InjectedRate.Set(float64(w.Injected) / float64(dc))
		s.DeliveredRate.Set(float64(w.Delivered) / float64(dc))
		s.KilledRate.Set(float64(w.Killed) / float64(dc))
	}
	s.LatencyP50.Set(float64(w.LatencyP50))
	s.LatencyP95.Set(float64(w.LatencyP95))
	s.LatencyP99.Set(float64(w.LatencyP99))

	if w.LinkBusy != nil { // link telemetry on
		for r, l := range w.HotLinks {
			s.HotLinkID[r].Set(l.ID)
			s.HotLinkFlits[r].Set(l.Flits)
		}
	}
}

// Follow folds ws's windows into the series from a goroutine that
// polls every 100 ms, like meshsim -live and the SSE stream. Call the
// returned stop once the run has returned: it ends the poller, folds
// the windows not yet seen and counts one completed run. Windows
// evicted from the sampler's ring before a poll are lost to the
// counters, so size the ring for the run.
func (s *Sim) Follow(ws *core.WindowSampler) (stop func()) {
	next := int64(0)
	poll := func() {
		for _, w := range ws.Since(next) {
			s.Observe(w)
			next = w.Seq + 1
		}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				poll()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		poll()
		s.QueuedRuns.Add(1)
	}
}
