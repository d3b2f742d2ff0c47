// Package wormmesh is a flit-level simulator of wormhole-switched 2-D
// mesh interconnect networks with adaptive fault-tolerant routing. It
// reproduces the comparative study of Safaei et al., "Evaluating the
// Performance of Adaptive Fault-Tolerant Routing Algorithms for
// Wormhole-Switched Mesh Interconnect Networks" (IPPS 2007): ten
// adaptive routing algorithms fortified with the Boppana–Chalasani
// f-ring scheme, evaluated on a 10×10 mesh with up to 10% node
// failures.
//
// The root package is a thin facade over the implementation packages:
//
//   - internal/topology — mesh coordinates and direction math
//   - internal/fault    — block fault regions, f-rings, labeling
//   - internal/core     — the wormhole-switching engine
//   - internal/routing  — the ten algorithms + the BC scheme
//   - internal/traffic  — workload generation
//   - internal/sim      — single-run driver and derived metrics
//   - internal/sweep    — parallel experiment harness
//   - internal/experiments — the paper's six figures as code
//
// Quick start:
//
//	p := wormmesh.DefaultParams()
//	p.Algorithm = "Duato-Nbc"
//	p.Rate = 0.002      // messages per node per cycle
//	p.Faults = 5        // 5% of a 10x10 mesh
//	res, err := wormmesh.Run(p)
//	if err != nil { ... }
//	fmt.Println(res.Stats.AvgLatency(), res.Stats.Throughput())
package wormmesh

import (
	"math/rand"

	"wormmesh/internal/core"
	"wormmesh/internal/experiments"
	"wormmesh/internal/fault"
	"wormmesh/internal/report"
	"wormmesh/internal/routing"
	"wormmesh/internal/sim"
	"wormmesh/internal/sweep"
	"wormmesh/internal/topology"
)

// Params configures one simulation run. See sim.Params for the field
// documentation.
type Params = sim.Params

// Result is a finished simulation with its measured statistics.
type Result = sim.Result

// Stats is the engine's measurement record for one window.
type Stats = core.Stats

// Config holds the router micro-architecture knobs.
type Config = core.Config

// Topology is the geometry contract a network backend satisfies; Mesh
// and Torus implement it.
type Topology = topology.Topology

// Mesh is a 2-D mesh topology (the paper's).
type Mesh = topology.Mesh

// Torus is a 2-D torus topology: the mesh plus wrap-around links.
type Torus = topology.Torus

// Coord addresses a mesh node.
type Coord = topology.Coord

// NodeID is a dense node identifier.
type NodeID = topology.NodeID

// FaultModel is an immutable fault pattern with its block regions and
// f-rings.
type FaultModel = fault.Model

// ExperimentOptions scales the figure-reproduction experiments.
type ExperimentOptions = experiments.Options

// SweepPoint and SweepOutcome drive batch simulation.
type (
	SweepPoint   = sweep.Point
	SweepOutcome = sweep.Outcome
)

// LinkMetric selects a per-link telemetry counter for reporting
// (Result.LinkView, Result.RingSplit); collection is gated by
// Config.ChannelTelemetry.
type LinkMetric = sim.LinkMetric

// The three per-link counters.
const (
	LinkFlits   = sim.LinkFlits
	LinkBusy    = sim.LinkBusy
	LinkBlocked = sim.LinkBlocked
)

// LatencyAnatomy renders a run's latency decomposition: mean cycles and
// share per component plus histogram percentiles.
func LatencyAnatomy(st Stats) *report.Table { return sim.LatencyAnatomy(st) }

// DefaultParams returns the paper's baseline configuration (10×10
// mesh, 100-flit messages, 24 VCs per physical channel, 30k cycles
// with 10k warm-up).
func DefaultParams() Params { return sim.DefaultParams() }

// Run executes one simulation.
func Run(p Params) (Result, error) { return sim.Run(p) }

// RunBatch executes many simulations on a worker pool and returns the
// outcomes in input order.
func RunBatch(points []SweepPoint, workers int) []SweepOutcome {
	return sweep.Run(points, workers, nil)
}

// Algorithms lists the eleven evaluated routing configurations in the
// paper's order.
func Algorithms() []string {
	return append([]string(nil), routing.AlgorithmNames...)
}

// DescribeAlgorithm returns a one-line description of an algorithm.
func DescribeAlgorithm(name string) string { return routing.Describe(name) }

// MinVCs returns the smallest virtual-channel count the named
// algorithm supports on a topology (hop-based class ladders grow with
// the diameter).
func MinVCs(name string, t Topology) (int, error) { return routing.MinVCs(name, t) }

// NewMesh builds a width×height mesh.
func NewMesh(width, height int) Mesh { return topology.New(width, height) }

// NewTorus builds a width×height torus.
func NewTorus(width, height int) Torus { return topology.NewTorus(width, height) }

// NewTopology builds the named topology backend ("mesh" or "torus";
// empty selects the mesh).
func NewTopology(kind string, width, height int) (Topology, error) {
	return topology.Make(kind, width, height)
}

// SupportsTopology reports whether the named algorithm's fortification
// is enabled (deadlock-free) on the given topology; the returned error
// explains a rejection.
func SupportsTopology(name string, t Topology) error {
	return routing.SupportsTopology(name, t)
}

// NewFaultModel builds a fault model from explicit failed nodes,
// coalescing them into block regions and constructing f-rings. It
// fails if the pattern disconnects the healthy nodes.
func NewFaultModel(t Topology, failed []NodeID) (*FaultModel, error) {
	return fault.New(t, failed)
}

// GenerateFaults draws a random connected fault pattern with the given
// number of failed nodes.
func GenerateFaults(t Topology, count int, seed int64) (*FaultModel, error) {
	return fault.Generate(t, count, rand.New(rand.NewSource(seed)), fault.Options{})
}

// PaperExperiments returns publication-scale experiment options;
// QuickExperiments a CI-scale variant.
func PaperExperiments() ExperimentOptions { return experiments.Paper() }

// QuickExperiments returns reduced-cycle experiment options.
func QuickExperiments() ExperimentOptions { return experiments.Quick() }
