package serve

import (
	"sync/atomic"

	"wormmesh/internal/sim"
	"wormmesh/internal/sweep"
)

// SweepCache adapts the result cache to sweep.Cache so offline drivers
// (experiments -cache, meshsim -cache, hybrid sweeps) read and feed the
// same store the server does. Points carrying observers the cache
// cannot reproduce — a flight recorder (trace stream), a postmortem
// writer, live metrics, window or per-link telemetry collection —
// bypass Lookup (the caller wants the side effects, not just the
// Stats) but still Store their results: observation never perturbs
// Stats, so the entry is valid for future observer-free requests.
// Bypassed lookups are counted apart from hits and misses, so a study
// whose every cell is observed does not report an idle cache.
type SweepCache struct {
	cache    *Cache
	bypassed atomic.Int64
}

// NewSweepCache wraps a result cache for sweep use.
func NewSweepCache(c *Cache) *SweepCache { return &SweepCache{cache: c} }

// observed reports whether p requests side effects a cached Stats
// cannot reproduce.
func observed(p sim.Params) bool {
	return p.FlightRecorder != nil || p.PostmortemWriter != nil || p.Sampler != nil ||
		p.Config.ChannelTelemetry
}

// Lookup implements sweep.Cache.
func (sc *SweepCache) Lookup(p sim.Params) (sim.Result, bool) {
	if observed(p) {
		sc.bypassed.Add(1)
		return sim.Result{}, false
	}
	key, _, err := Key(p)
	if err != nil {
		return sim.Result{}, false
	}
	entry, _, ok := sc.cache.Get(key)
	if !ok {
		return sim.Result{}, false
	}
	res := entry.Result()
	// Hand back the caller's own Params (pre-normalization) so derived
	// quantities like NormalizedThroughput see the topology they asked
	// about; Stats are identical by the normalization contract.
	res.Params = p
	return res, true
}

// Store implements sweep.Cache.
func (sc *SweepCache) Store(p sim.Params, r sim.Result) {
	key, np, err := Key(p)
	if err != nil {
		return
	}
	entry, err := NewEntry(key, np, r)
	if err != nil {
		return
	}
	// Put errors (disk full, read-only store) only cost future hits.
	_, _ = sc.cache.Put(entry)
}

// Stats exposes the underlying cache counters for CLI summaries.
func (sc *SweepCache) Stats() (hits, diskHits, misses int64) {
	return sc.cache.Stats()
}

// Bypassed counts the lookups that skipped the cache because their
// point was observed; they are neither hits nor misses.
func (sc *SweepCache) Bypassed() int64 { return sc.bypassed.Load() }

var _ sweep.Cache = (*SweepCache)(nil)
