// Package sim runs single simulations: it wires the mesh, fault
// pattern, routing algorithm, traffic source and engine together,
// handles warm-up, and derives the metrics the paper reports.
package sim

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"wormmesh/internal/core"
	"wormmesh/internal/fault"
	"wormmesh/internal/topology"
)

// Params fully specifies one simulation. The zero value is not
// runnable; start from DefaultParams.
type Params struct {
	Width, Height int
	// Topology selects the network backend: "mesh" (the default when
	// empty, matching the paper) or "torus". Torus runs are restricted
	// to the algorithms whose fortification is deadlock-free over wrap
	// links (routing.SupportsTopology).
	Topology  string
	Algorithm string
	Pattern   string

	// Rate is the traffic generation rate in messages per node per
	// cycle (the paper's x-axis); MessageLength is in flits.
	Rate          float64
	MessageLength int

	WarmupCycles  int64
	MeasureCycles int64

	// WarmupMode selects how the warm-up truncation point is chosen.
	// "" or "fixed" discards exactly WarmupCycles (the bit-exact
	// default). "mser" runs sequential MSER-style detection over
	// SteadyWindow-cycle batches of mean latency and cuts the
	// measurement window at the detected cycle; WarmupCycles then acts
	// as the cap — if no steady state is detected by then, the run
	// falls back to the fixed cut. The cycle actually discarded is
	// reported in Stats.EffectiveWarmup either way. Detection observes
	// live counters only (read-only, RNG-free), so an "mser" run is
	// bit-identical to a fixed run with WarmupCycles set to the
	// detected value.
	WarmupMode string
	// SteadyWindow is the batch width in cycles for both steady-state
	// detectors (warm-up MSER batches and the stopping rule's CI
	// batches). Zero means DefaultSteadyWindow.
	SteadyWindow int64
	// StopRelPrecision, when > 0, enables the relative-precision
	// stopping rule: measurement ends early once the 95% batch-means
	// confidence half-width of mean latency falls below this fraction
	// of the mean (e.g. 0.05 for ±5%). MeasureCycles caps the
	// measurement either way. The achieved half-width is reported in
	// Stats.LatencyCIHalf. Note that stopping early changes Stats (the
	// window is shorter), so unlike pure observers this field is part
	// of a run's identity.
	StopRelPrecision float64
	// Deprecated: ignored; the engine is serial.
	EngineWorkers int

	// PostmortemWriter, when non-nil, receives a rendered deadlock
	// post-mortem (core.Postmortem.Render) each time the global
	// watchdog fires: the message→VC wait-for graph captured before
	// the recovery victim is torn down. Without a FlightRecorder the
	// run gets one at the default capacity, so reports carry the last
	// engine events.
	PostmortemWriter io.Writer `json:"-"`
	// FlightRecorder, when non-nil, is the run's engine event sink: the
	// runner Resets it, installs it as the network's observer and, at
	// run end, Flushes its JSONL stream (core.FlightRecorder.Stream) —
	// a stream write error fails the run as "sim: trace: ...". One ring
	// serves a -trace stream, post-mortem tails and Chrome or span
	// dumps together. Like every observer it never changes Stats and is
	// excluded from JSON manifests.
	FlightRecorder *core.FlightRecorder `json:"-"`

	// Sampler, when non-nil, is the time-resolved telemetry observer:
	// the runner Starts it against the network at cycle 0 and Ticks it
	// every cycle, so window snapshots of the whole run (warm-up
	// included) stream into its ring for live readers (SSE, dashboards,
	// meshsim -windows and -metrics-addr) while the run executes. Like every observer it
	// is read-only and RNG-free — Stats are bit-identical with or
	// without it — and excluded from JSON manifests.
	Sampler *core.WindowSampler `json:"-"`

	// Faults is the number of randomly failed nodes. FaultNodes, when
	// non-nil, overrides random generation with an explicit pattern
	// (Figure 6's canned regions).
	Faults     int
	FaultNodes []topology.NodeID
	// FaultSeed seeds fault-pattern generation only, so the same seed
	// yields the same pattern for every algorithm — the paper's
	// "comparative performance across fault cases is in accordance
	// with the fault sets used".
	FaultSeed int64
	// Seed seeds traffic generation and in-network arbitration.
	Seed int64

	Config core.Config
}

// DefaultParams returns the paper's baseline configuration: a 10×10
// mesh, 100-flit messages, 24 virtual channels per physical channel,
// 30 000 cycles with the first 10 000 discarded as warm-up.
func DefaultParams() Params {
	return Params{
		Width:         10,
		Height:        10,
		Algorithm:     "Duato",
		Pattern:       "uniform",
		Rate:          0.001,
		MessageLength: 100,
		WarmupCycles:  10000,
		MeasureCycles: 20000,
		FaultSeed:     1,
		Seed:          1,
		Config:        DefaultEngineConfig(),
	}
}

// DefaultEngineConfig is core.DefaultConfig plus the source-queue
// bound that keeps past-saturation runs at finite memory.
func DefaultEngineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxSourceQueue = 16
	return cfg
}

// Result carries the measured statistics and the context needed to
// interpret them.
type Result struct {
	Params Params
	Stats  core.Stats
	Faults *fault.Model

	FaultCount       int // total unusable nodes (seed + deactivated)
	SeedFaults       int
	RingNodes        int
	Regions          int
	Elapsed          time.Duration
	UndeliveredAtEnd int

	// Links holds the per-link congestion counters for the measurement
	// window when Params.Config.ChannelTelemetry is set; nil otherwise.
	Links *core.LinkStats
}

// Run executes one simulation.
func Run(p Params) (Result, error) {
	if p.Width == 0 || p.Height == 0 {
		return Result{}, fmt.Errorf("sim: mesh dimensions not set")
	}
	f, err := BuildFaults(p)
	if err != nil {
		return Result{}, err
	}
	return RunWithFaults(p, f)
}

// BuildFaults materializes the fault model a Params describes.
func BuildFaults(p Params) (*fault.Model, error) {
	topo, err := topology.Make(p.Topology, p.Width, p.Height)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if p.FaultNodes != nil {
		return fault.New(topo, p.FaultNodes)
	}
	if p.Faults == 0 {
		return fault.None(topo), nil
	}
	frng := rand.New(rand.NewSource(p.FaultSeed))
	return fault.Generate(topo, p.Faults, frng, fault.Options{})
}

// RunWithFaults executes one simulation over a pre-built fault model
// (so sweeps can share one pattern across algorithms and loads). It is
// a one-shot Runner: drivers that execute many simulations should own a
// Runner and call its methods directly to reuse the network, source and
// caches across runs (internal/sweep's workers do).
func RunWithFaults(p Params, f *fault.Model) (Result, error) {
	return NewRunner().RunWithFaults(p, f)
}

// NormalizedThroughput is the accepted traffic as a fraction of the
// fault-free network's uniform-traffic bisection capacity in flits per
// node per cycle — the closest well-defined analogue of the paper's
// "messages received over messages that can be transmitted at the
// maximum load". A W×H mesh's bisection is 2·min(W,H) bidirectional
// links, giving 4·min(W,H)/(W·H); the torus's wrap links double the
// bisection to 8·min(W,H)/(W·H), so the same topology size normalizes
// against its own capacity and mesh-vs-torus comparisons are at equal
// bisection bandwidth.
func (r Result) NormalizedThroughput() float64 {
	minDim := r.Params.Width
	if r.Params.Height < minDim {
		minDim = r.Params.Height
	}
	nodes := float64(r.Params.Width * r.Params.Height)
	capacity := 4 * float64(minDim) / nodes
	if r.Params.Topology == "torus" {
		capacity *= 2
	}
	return r.Stats.Throughput() / capacity
}

// OfferedLoad returns the configured offered traffic in flits per node
// per cycle.
func (r Result) OfferedLoad() float64 {
	return r.Params.Rate * float64(r.Params.MessageLength)
}

// AcceptanceRatio is delivered traffic over generated traffic — near 1
// below saturation, dropping once the network saturates.
func (r Result) AcceptanceRatio() float64 {
	if r.Stats.Generated == 0 {
		return 0
	}
	return float64(r.Stats.Delivered) / float64(r.Stats.Generated)
}
