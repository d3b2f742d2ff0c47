// Package experiments encodes the paper's six figures and the
// repository's extension studies as runnable experiment definitions,
// shared by cmd/experiments and the test suite. Every study returns one
// report.Table: the rows cmd/experiments prints and saves as CSV, with
// typed cells that tests and charts read back. EXPERIMENTS.md records
// the measured-vs-paper comparison.
package experiments

import (
	"fmt"
	"io"

	"wormmesh/internal/metrics"
	"wormmesh/internal/sim"
	"wormmesh/internal/sweep"
	"wormmesh/internal/topology"
)

// Options scales the experiments. Paper() reproduces the publication
// parameters (within tractable replication counts); Quick() shrinks
// cycle counts for tests and benchmarks while preserving shapes.
type Options struct {
	Width, Height int
	// Topology selects the network backend ("mesh" or "torus"; empty
	// means mesh). It re-bases every study; algorithm defaults should
	// be intersected with the torus roster by the caller.
	Topology      string
	MessageLength int
	NumVCs        int

	WarmupCycles  int64
	MeasureCycles int64
	FaultSets     int // replications per fault case
	Workers       int // 0 = NumCPU
	Seed          int64

	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer `json:"-"`

	// SweepMetrics, when non-nil, publishes live batch progress
	// (points total/done, elapsed, ETA) for every sweep these options
	// run — cmd/experiments wires it to a -metrics-addr listener so a
	// multi-hour figure regeneration is observable from the outside.
	SweepMetrics *metrics.Sweep `json:"-"`

	// Cache, when non-nil, is the content-addressed result cache every
	// sweep consults before simulating a point and files results into —
	// cmd/experiments wires it to the same disk store meshserve uses,
	// so a re-run of a figure costs lookups, not simulations.
	Cache sweep.Cache `json:"-"`
}

// Paper returns the publication-scale options: 10×10 mesh, 100-flit
// messages, 24 VCs, 30 000 cycles with 10 000 warm-up. (The paper runs
// 1 000 fault patterns for its fault-model statistics and 10 fault
// sets for the performance figures; we default to the latter
// everywhere and let callers raise it.)
func Paper() Options {
	return Options{
		Width: 10, Height: 10,
		MessageLength: 100,
		NumVCs:        24,
		WarmupCycles:  10000,
		MeasureCycles: 20000,
		FaultSets:     10,
		Seed:          1,
	}
}

// Quick returns CI-scale options (roughly 6× faster per run, 3 fault
// sets).
func Quick() Options {
	o := Paper()
	o.WarmupCycles = 1000
	o.MeasureCycles = 4000
	o.FaultSets = 3
	return o
}

// baseParams builds the shared sim.Params for these options.
func (o Options) baseParams() sim.Params {
	p := sim.DefaultParams()
	p.Width, p.Height = o.Width, o.Height
	p.Topology = o.Topology
	p.MessageLength = o.MessageLength
	p.WarmupCycles = o.WarmupCycles
	p.MeasureCycles = o.MeasureCycles
	p.Seed = o.Seed
	p.FaultSeed = o.Seed
	if o.NumVCs != 0 {
		p.Config.NumVCs = o.NumVCs
	}
	return p
}

// runCells executes one batch of points with the configured worker
// count and result cache, bracketing it with the live sweep metrics
// when installed, and returns the outcomes grouped into cells:
// consecutive points sharing a key are one cell's replicas, in point
// order, so distinct cells need distinct keys.
func (o Options) runCells(points []sweep.Point) ([][]sweep.Outcome, error) {
	var progress func(done, total int)
	if o.SweepMetrics != nil {
		o.SweepMetrics.Start(len(points))
		defer o.SweepMetrics.Finish()
		progress = o.SweepMetrics.Progress
	}
	outcomes := sweep.RunCached(points, o.Workers, progress, o.Cache)
	if err := sweep.FirstError(outcomes); err != nil {
		return nil, err
	}
	var cells [][]sweep.Outcome
	for i, oc := range outcomes {
		if i == 0 || oc.Point.Key != outcomes[i-1].Point.Key {
			cells = append(cells, nil)
		}
		cells[len(cells)-1] = append(cells[len(cells)-1], oc)
	}
	return cells, nil
}

func (o Options) logf(format string, args ...interface{}) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// SaturatingRate is the offered load used for the paper's "100%
// traffic load" experiments: far above the mesh's bisection capacity,
// so injection is limited only by the network's acceptance.
func (o Options) SaturatingRate() float64 {
	// One flit per node per cycle offered; capacity is ~0.4 for 10×10.
	return 1.0 / float64(o.MessageLength)
}

// Fig6FaultNodes returns the canned fault pattern of Figure 6 scaled
// to the mesh: one 2-wide × 3-high block plus two 1×1 regions in the
// same row band, spaced so their f-rings overlap.
func (o Options) Fig6FaultNodes() []topology.NodeID {
	m := topology.New(o.Width, o.Height)
	var ids []topology.NodeID
	add := func(x, y int) {
		c := topology.Coord{X: x, Y: y}
		if m.Contains(c) {
			ids = append(ids, m.ID(c))
		}
	}
	// 2×3 block at columns 2-3, rows 3-5.
	for y := 3; y <= 5; y++ {
		for x := 2; x <= 3; x++ {
			add(x, y)
		}
	}
	// Two unit regions at Chebyshev distance 2 (distinct regions,
	// overlapping f-rings).
	add(5, 4)
	add(7, 4)
	return ids
}
