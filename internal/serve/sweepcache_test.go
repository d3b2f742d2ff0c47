package serve

import (
	"testing"

	"wormmesh/internal/core"
	"wormmesh/internal/sim"
)

// TestSweepCacheSamplerMisses: a cached entry holds Stats, not a window
// series, so a run that attaches a sampler must simulate (and still
// file its result) rather than come back with an empty sampler.
func TestSweepCacheSamplerMisses(t *testing.T) {
	sc := NewSweepCache(NewCache(16, nil, nil))
	p := quickParams()
	res, err := sim.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	sc.Store(p, res)
	if _, ok := sc.Lookup(p); !ok {
		t.Fatal("plain lookup missed a stored result")
	}
	p.Sampler = core.NewWindowSampler(100, 0)
	if _, ok := sc.Lookup(p); ok {
		t.Error("lookup with a sampler attached hit the cache")
	}
}
