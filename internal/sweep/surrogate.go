package sweep

import (
	"fmt"
	"sync"

	"wormmesh/internal/analytic"
	"wormmesh/internal/core"
	"wormmesh/internal/metrics"
	"wormmesh/internal/routing"
	"wormmesh/internal/sim"
	"wormmesh/internal/topology"
)

// HybridSupported reports whether the analytic surrogate models the
// given cell, with an error explaining any rejection: callers gate
// hybrid modes on it instead of silently falling back to simulation.
func HybridSupported(p sim.Params) error {
	if p.Topology != "" && p.Topology != "mesh" {
		return fmt.Errorf("%w: hybrid sweeps model meshes only, not %q", analytic.ErrUnsupported, p.Topology)
	}
	if (p.Faults > 0 || p.FaultNodes != nil) && !routing.LoadsSupported(p.Algorithm) {
		return fmt.Errorf("%w: %s routes around faults outside the BC fortification", analytic.ErrUnsupported, p.Algorithm)
	}
	return nil
}

// Surrogate builds the analytic model matching one cell's parameters
// (topology, message length, VC budget, fault pattern): the model a
// hybrid sweep screens that cell's load axis with. Unsupported cells
// return an error satisfying errors.Is(err, analytic.ErrUnsupported);
// a faulted cell whose VC budget the algorithm cannot run on is refused
// as its simulation would be.
func Surrogate(p sim.Params) (analytic.Model, error) {
	if err := surrogateGate(p); err != nil {
		return analytic.Model{}, err
	}
	return buildSurrogate(p)
}

// surrogateGate holds the per-algorithm checks of a surrogate cell. The
// model itself reads no algorithm, so they are all it takes to share
// one build across a SurrogateClass. Fault-free cells need no VC check:
// the cut model never builds the algorithm.
func surrogateGate(p sim.Params) error {
	if err := HybridSupported(p); err != nil {
		return err
	}
	if p.Faults == 0 && len(p.FaultNodes) == 0 {
		return nil
	}
	topo, err := topology.Make(p.Topology, p.Width, p.Height)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	return routing.Validate(p.Algorithm, topo, engineConfig(p).NumVCs)
}

// engineConfig is the engine configuration a run of p uses.
func engineConfig(p sim.Params) core.Config {
	if p.Config.NumVCs == 0 {
		return sim.DefaultEngineConfig()
	}
	return p.Config
}

// buildSurrogate builds the model of p's class without looking at
// p.Algorithm.
func buildSurrogate(p sim.Params) (analytic.Model, error) {
	f, err := sim.BuildFaults(p)
	if err != nil {
		return analytic.Model{}, err
	}
	cfg := engineConfig(p)
	mo := analytic.Default()
	mo.Topo = f.Topo
	mo.MessageLength = p.MessageLength
	// The BC fortification reserves four ring VCs; the rest is the
	// free pool the model's occupancy term sees.
	mo.VirtualChannels = cfg.NumVCs - 4
	if mo.VirtualChannels < 1 {
		mo.VirtualChannels = 1
	}
	if cfg.EjectBW > 0 {
		mo.EjectBandwidth = float64(cfg.EjectBW)
	}
	return mo.WithFaults(f)
}

// SurrogateClass returns the key of the surrogate that serves p: the
// canonical digest of p with Rate, Seed, the cycle counts and Algorithm
// zeroed. The model reads none of them, so every rate of every
// supported algorithm on one configuration shares a class.
func SurrogateClass(p sim.Params) (string, error) {
	p.Rate = 0
	p.Seed = 0
	p.WarmupCycles = 0
	p.MeasureCycles = 0
	p.Algorithm = ""
	return metrics.CanonicalDigest(p)
}

// Surrogates memoizes surrogates and their saturation knees per
// SurrogateClass. Concurrent first requests for a class wait on one
// build. The zero value is ready to use; it is safe for concurrent use.
type Surrogates struct {
	// OnBuild, when non-nil, is called once per class build.
	OnBuild func()

	mu      sync.Mutex
	classes map[string]*classSurrogate
}

type classSurrogate struct {
	once  sync.Once
	model analytic.Model
	knee  float64
	err   error
}

// Get returns p's surrogate and its saturation knee. It refuses what
// Surrogate refuses, checking every call; the build behind the checks
// is shared by p's class.
func (s *Surrogates) Get(p sim.Params) (analytic.Model, float64, error) {
	if err := surrogateGate(p); err != nil {
		return analytic.Model{}, 0, err
	}
	key, err := SurrogateClass(p)
	if err != nil {
		return analytic.Model{}, 0, err
	}
	s.mu.Lock()
	if s.classes == nil {
		s.classes = make(map[string]*classSurrogate)
	}
	cs := s.classes[key]
	if cs == nil {
		cs = &classSurrogate{}
		s.classes[key] = cs
	}
	s.mu.Unlock()
	cs.once.Do(func() {
		if s.OnBuild != nil {
			s.OnBuild()
		}
		cs.model, cs.err = buildSurrogate(p)
		if cs.err == nil {
			cs.knee = cs.model.SaturationRate()
		}
	})
	return cs.model, cs.knee, cs.err
}
