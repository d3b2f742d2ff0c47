// Package serve turns the simulator into a service: a content-addressed
// result cache (memory LRU over a disk store), a request-deduplicating
// worker fleet over pooled sim.Runners, and HTTP handlers exposing
// single runs and sweeps with per-job progress. The enabling contract
// is bit-exact determinism — equal normalized Params always reproduce
// the same Stats (the sim runner golden tests) — which makes a cached
// result indistinguishable from a fresh simulation.
package serve

import (
	"fmt"

	"wormmesh/internal/metrics"
	"wormmesh/internal/routing"
	"wormmesh/internal/sim"
	"wormmesh/internal/topology"
)

// Normalize canonicalizes request Params into the representative of
// their equivalence class: every field that does not influence the
// measured Stats is forced to its canonical value, and every "zero
// means default" field is made explicit. Two requests that would
// produce bit-identical Stats normalize identically — that is the
// cache-key contract — and anything unrunnable is rejected here, before
// it can occupy a worker.
//
// Normalization rules, in order:
//   - observers are stripped (writers, metrics, window/telemetry
//     collection): they never change Stats, only record them;
//   - EngineWorkers collapses to the arbitration model: 0 stays 0 (the
//     serial engine), any n >= 1 becomes 1 (the parallel model is
//     bit-identical for every worker count, so the count is capacity,
//     not configuration);
//   - defaults are made explicit (topology, algorithm, pattern, message
//     length, cycle counts, seeds, engine Config) exactly as the sim
//     layer would apply them;
//   - fault identity: explicit FaultNodes zero the random-fault fields;
//     a fault-free request zeroes FaultSeed (no pattern is drawn).
func Normalize(p sim.Params) (sim.Params, error) {
	if p.Width <= 0 || p.Height <= 0 {
		return p, fmt.Errorf("serve: mesh dimensions %dx%d not positive", p.Width, p.Height)
	}
	if p.Rate <= 0 {
		return p, fmt.Errorf("serve: rate %g not positive", p.Rate)
	}
	if p.Faults < 0 {
		return p, fmt.Errorf("serve: fault count %d negative", p.Faults)
	}

	// Observers: recording is read-only, so observed and unobserved runs
	// share a cache entry.
	p.TraceWriter = nil
	p.TraceFlits = false
	p.PostmortemWriter = nil
	p.FlightRecorderEvents = 0
	p.FlightRecorder = nil
	p.Metrics = nil
	p.Sampler = nil

	if p.EngineWorkers >= 1 {
		p.EngineWorkers = 1
	} else {
		p.EngineWorkers = 0
	}

	if p.Topology == "" {
		p.Topology = "mesh"
	}
	if p.Algorithm == "" {
		p.Algorithm = "Duato"
	}
	if p.Pattern == "" {
		p.Pattern = "uniform"
	}
	if p.MessageLength <= 0 {
		p.MessageLength = 100
	}
	if p.WarmupCycles == 0 && p.MeasureCycles == 0 {
		p.WarmupCycles, p.MeasureCycles = 10000, 20000
	}
	if p.WarmupCycles < 0 || p.MeasureCycles <= 0 {
		return p, fmt.Errorf("serve: cycle counts warmup=%d measure=%d not runnable", p.WarmupCycles, p.MeasureCycles)
	}
	if p.Seed == 0 {
		p.Seed = 1
	}

	// Steady-state handling is NOT an observer: adaptive warm-up and the
	// stopping rule change the measurement window, hence Stats, so the
	// fields stay in the key — but inert spellings collapse to the
	// canonical fixed request so they don't split the cache.
	switch p.WarmupMode {
	case "", "fixed":
		p.WarmupMode = ""
	case "mser":
	default:
		return p, fmt.Errorf("serve: unknown warmup mode %q", p.WarmupMode)
	}
	if p.StopRelPrecision < 0 {
		return p, fmt.Errorf("serve: stop precision %g negative", p.StopRelPrecision)
	}
	if p.WarmupMode == "" && p.StopRelPrecision == 0 {
		p.SteadyWindow = 0 // no detector runs; the batch width is inert
	} else if p.SteadyWindow <= 0 {
		p.SteadyWindow = sim.DefaultSteadyWindow
	}

	if p.FaultNodes != nil {
		if len(p.FaultNodes) == 0 {
			p.FaultNodes = nil // empty explicit set is the fault-free request
		}
		p.Faults = 0
		p.FaultSeed = 0
	} else if p.Faults == 0 {
		p.FaultSeed = 0 // no pattern drawn; seed is inert
	} else if p.FaultSeed == 0 {
		p.FaultSeed = 1
	}

	topo, err := topology.Make(p.Topology, p.Width, p.Height)
	if err != nil {
		return p, fmt.Errorf("serve: %w", err)
	}
	if err := routing.SupportsTopology(p.Algorithm, topo); err != nil {
		return p, fmt.Errorf("serve: %w", err)
	}

	// Engine config, mirroring the Runner's normalization so a request
	// carrying the zero Config and one spelling the defaults collide.
	cfg := p.Config
	if cfg.NumVCs == 0 {
		cfg = sim.DefaultEngineConfig()
	}
	if cfg.MaxHops == 0 {
		cfg.MaxHops = int32(16 * topo.Diameter())
	}
	if cfg.StallScanInterval <= 0 {
		cfg.StallScanInterval = 1024
	}
	// Per-link telemetry is an observer too: it changes Result.Links,
	// never Stats. Cache entries store Stats only, so normalize it away.
	cfg.ChannelTelemetry = false
	if err := cfg.Validate(); err != nil {
		return p, fmt.Errorf("serve: %w", err)
	}
	if min, err := routing.MinVCs(p.Algorithm, topo); err != nil {
		return p, fmt.Errorf("serve: %w", err)
	} else if cfg.NumVCs < min {
		return p, fmt.Errorf("serve: %s on %s needs >= %d VCs, got %d", p.Algorithm, p.Topology, min, cfg.NumVCs)
	}
	p.Config = cfg
	return p, nil
}

// Key normalizes p and returns its content address — the canonical
// digest the cache files results under — together with the normalized
// Params the simulation must run with so the stored result matches the
// key exactly.
func Key(p sim.Params) (string, sim.Params, error) {
	np, err := Normalize(p)
	if err != nil {
		return "", np, err
	}
	d, err := metrics.CanonicalDigest(np)
	if err != nil {
		return "", np, err
	}
	return d, np, nil
}
