package sim

import (
	"fmt"
	"math/rand"
	"time"

	"wormmesh/internal/core"
	"wormmesh/internal/fault"
	"wormmesh/internal/routing"
	"wormmesh/internal/topology"
	"wormmesh/internal/traffic"
)

// Runner executes simulations back to back while reusing every
// expensive artifact a single Run would rebuild from scratch: the
// network (routers, VC arrays, neighbor table, message arena), the
// traffic source, both RNGs, and — keyed caches — fault models and
// traffic patterns. Fortified routing algorithms are built per run:
// they hold nothing but the fault model's rings, so construction costs
// microseconds. A 1,000-point sweep through one Runner allocates O(1)
// networks instead of O(points).
//
// Reuse is observably transparent: a Runner produces bit-identical
// Results to the one-shot Run/RunWithFaults for the same Params (the
// invariant locked in by internal/sim's runner golden tests). That
// holds because core.Network.Reset restores the exact post-construction
// state, traffic.Source.Reset replays NewSource's RNG draw order, and
// math/rand re-seeding reproduces rand.New(rand.NewSource(seed))'s
// stream.
//
// Caches are keyed by (mesh, fault count, fault seed) and (pattern,
// fault model), so memory grows with the number of DISTINCT
// experimental cells, not with the number of runs; a Runner is meant to
// be owned by one sweep worker and discarded with Close when the sweep
// ends. A Runner is not safe for concurrent use — give each goroutine
// its own (see internal/sweep).
type Runner struct {
	net     *core.Network
	src     *traffic.Source
	engRng  *rand.Rand
	trafRng *rand.Rand

	faults   map[faultCacheKey]*fault.Model
	explicit map[string]*fault.Model // FaultNodes-specified models
	patterns map[patternCacheKey]traffic.Pattern

	// batches closes the steady-state detectors' batches (steady.go).
	batches *core.WindowSampler
}

type faultCacheKey struct {
	topology      string
	width, height int
	faults        int
	seed          int64
}

type patternCacheKey struct {
	name  string
	model *fault.Model
}

// NewRunner returns an empty Runner; resources materialize on first
// use.
func NewRunner() *Runner { return &Runner{} }

// Close drops the Runner's reused network so its memory can be
// reclaimed. The Runner must not be used after Close.
func (r *Runner) Close() { r.net = nil }

// Run executes one simulation, reusing the Runner's cached state.
func (r *Runner) Run(p Params) (Result, error) {
	if p.Width == 0 || p.Height == 0 {
		return Result{}, fmt.Errorf("sim: mesh dimensions not set")
	}
	f, err := r.buildFaults(p)
	if err != nil {
		return Result{}, err
	}
	return r.RunWithFaults(p, f)
}

// buildFaults is BuildFaults through the Runner's model cache. Models
// are immutable, so sharing one instance across runs (and exposing it
// in Result.Faults) is safe.
func (r *Runner) buildFaults(p Params) (*fault.Model, error) {
	if p.FaultNodes != nil {
		topo, err := topology.Make(p.Topology, p.Width, p.Height)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		key := fmt.Sprintf("%s:%dx%d:%v", topo.Kind(), p.Width, p.Height, p.FaultNodes)
		if f, ok := r.explicit[key]; ok {
			return f, nil
		}
		f, err := fault.New(topo, p.FaultNodes)
		if err != nil {
			return nil, err
		}
		if r.explicit == nil {
			r.explicit = map[string]*fault.Model{}
		}
		r.explicit[key] = f
		return f, nil
	}
	kind := p.Topology
	if kind == "" {
		kind = "mesh" // Make's default; normalized so "" and "mesh" share a cache entry
	}
	key := faultCacheKey{topology: kind, width: p.Width, height: p.Height, faults: p.Faults, seed: p.FaultSeed}
	if p.Faults == 0 {
		key.seed = 0 // seed is irrelevant for the fault-free model
	}
	if f, ok := r.faults[key]; ok {
		return f, nil
	}
	f, err := BuildFaults(p)
	if err != nil {
		return nil, err
	}
	if r.faults == nil {
		r.faults = map[faultCacheKey]*fault.Model{}
	}
	r.faults[key] = f
	return f, nil
}

// pattern returns the cached traffic pattern for (name, f).
func (r *Runner) pattern(name string, f *fault.Model) (traffic.Pattern, error) {
	key := patternCacheKey{name: name, model: f}
	if p, ok := r.patterns[key]; ok {
		return p, nil
	}
	p, err := traffic.NewPattern(name, f)
	if err != nil {
		return nil, err
	}
	if r.patterns == nil {
		r.patterns = map[patternCacheKey]traffic.Pattern{}
	}
	r.patterns[key] = p
	return p, nil
}

// RunWithFaults executes one simulation over a pre-built fault model,
// reusing the Runner's network, source and caches. The RNG interaction
// order deliberately mirrors the one-shot path — seed engine RNG, build
// or Reset the network (no draws), seed traffic RNG, build or Reset the
// source (one ExpFloat64 per healthy node) — so results are
// bit-identical to RunWithFaults.
func (r *Runner) RunWithFaults(p Params, f *fault.Model) (Result, error) {
	start := time.Now()
	mesh := f.Topo
	cfg := p.Config
	if cfg.NumVCs == 0 {
		cfg = DefaultEngineConfig()
	}
	if cfg.MaxHops == 0 {
		// Livelock guard: far above any legitimate detour.
		cfg.MaxHops = int32(16 * mesh.Diameter())
	}
	if cfg.StallScanInterval <= 0 {
		// Mirror NewNetwork's normalization BEFORE the reuse comparison
		// below, so a hand-built Config with the zero value still matches
		// the stored (normalized) Cfg and keeps the network reusable.
		cfg.StallScanInterval = 1024
	}
	alg, err := routing.New(p.Algorithm, f, cfg.NumVCs)
	if err != nil {
		return Result{}, err
	}
	if r.engRng == nil {
		r.engRng = rand.New(rand.NewSource(p.Seed))
		r.trafRng = rand.New(rand.NewSource(p.Seed + 0x9e3779b9))
	} else {
		// Re-seeding restores the exact state rand.New(rand.NewSource)
		// would build, so the reused Rand replays the fresh stream.
		r.engRng.Seed(p.Seed)
		r.trafRng.Seed(p.Seed + 0x9e3779b9)
	}
	if r.net != nil && r.net.Topo == mesh && r.net.Cfg == cfg {
		if err := r.net.Reset(f, alg, r.engRng); err != nil {
			return Result{}, err
		}
	} else {
		net, err := core.NewNetwork(mesh, f, alg, cfg, r.engRng)
		if err != nil {
			return Result{}, err
		}
		r.net = net
	}
	net := r.net
	// Observability. Recording and diagnosis are strictly read-only
	// (no engine mutation, no RNG draws), so none of this changes the
	// run's statistics — the flightrec golden test locks that in.
	rec := p.FlightRecorder
	if rec == nil && p.PostmortemWriter != nil {
		rec = core.NewFlightRecorder(0) // default capacity
	}
	if rec != nil {
		rec.Reset()
		net.SetTracer(rec)
	}
	var pmErr error
	if p.PostmortemWriter != nil {
		w := p.PostmortemWriter
		net.SetPostmortemHook(func(pm *core.Postmortem) {
			if err := pm.Render(w); err != nil && pmErr == nil {
				pmErr = err
			}
		})
	}
	pat, err := r.pattern(p.Pattern, f)
	if err != nil {
		return Result{}, err
	}
	if r.src == nil {
		src, err := traffic.NewSource(f, pat, p.Rate, p.MessageLength, r.trafRng)
		if err != nil {
			return Result{}, err
		}
		r.src = src
	} else if err := r.src.Reset(f, pat, p.Rate, p.MessageLength, r.trafRng); err != nil {
		return Result{}, err
	}
	src := r.src
	// Sustained-load runs recycle completed messages through the
	// network's arena: steady-state cycles then allocate nothing.
	src.Alloc = net.AcquireMessage

	switch p.WarmupMode {
	case "", "fixed", "mser":
	default:
		return Result{}, fmt.Errorf("sim: unknown WarmupMode %q (want \"\", \"fixed\" or \"mser\")", p.WarmupMode)
	}
	sampler := p.Sampler
	if sampler != nil {
		sampler.Start(net, p.WarmupCycles+p.MeasureCycles)
	}
	// The loop runs in two phases — warm-up, then measurement behind a
	// ResetStats cut — with per-cycle work identical to the historical
	// single loop, so the fixed path stays bit-exact. The steady-state
	// detectors read batches from a runner-private sampler (never the
	// caller's, so attaching one stays neutral) and only ever SHORTEN a
	// phase, so an adaptive run replays the exact trajectory of a fixed
	// run of the resulting length.
	cycle := int64(0)
	step := func() {
		src.Tick(cycle, net.Offer)
		net.Step()
		if sampler != nil {
			sampler.Tick(net)
		}
		cycle++
	}
	var det *warmupDetector
	var stopper *ciStopper
	if p.MeasureCycles > 0 {
		if p.WarmupMode == "mser" && p.WarmupCycles > 0 {
			det = &warmupDetector{}
		}
		if p.StopRelPrecision > 0 {
			stopper = &ciStopper{rel: p.StopRelPrecision}
		}
	}
	var batches *core.WindowSampler
	if det != nil || stopper != nil {
		batches = r.batchSampler(p.SteadyWindow)
		batches.Start(net, 0)
	}
	for cycle < p.WarmupCycles {
		step()
		if det != nil && batches.Tick(net) && det.add(lastWindow(batches)) {
			break
		}
	}
	effWarmup := cycle
	if p.MeasureCycles > 0 {
		net.ResetStats()
		if stopper != nil {
			batches.Start(net, 0) // batches restart at the cut
		}
		for end := cycle + p.MeasureCycles; cycle < end; {
			step()
			if stopper != nil && batches.Tick(net) && stopper.add(lastWindow(batches)) {
				break
			}
		}
	}
	if sampler != nil {
		sampler.Flush(net)
	}

	res := Result{
		Params:           p,
		Faults:           f,
		Stats:            net.Snapshot(),
		FaultCount:       f.FaultCount(),
		SeedFaults:       f.SeedCount(),
		Regions:          len(f.Regions()),
		Elapsed:          time.Since(start),
		UndeliveredAtEnd: net.InFlight(),
		Links:            net.LinkSnapshot(),
	}
	if p.MeasureCycles > 0 {
		res.Stats.EffectiveWarmup = effWarmup
	}
	if stopper != nil {
		res.Stats.LatencyCIHalf = stopper.half
	}
	if rec != nil {
		if err := rec.Flush(); err != nil {
			return res, fmt.Errorf("sim: trace: %w", err)
		}
	}
	if pmErr != nil {
		return res, fmt.Errorf("sim: postmortem: %w", pmErr)
	}
	for id := topology.NodeID(0); int(id) < mesh.NodeCount(); id++ {
		if !f.IsFaulty(id) && f.OnAnyRing(id) {
			res.RingNodes++
		}
	}
	return res, nil
}
