package experiments

import (
	"fmt"

	"wormmesh/internal/report"
	"wormmesh/internal/routing"
	"wormmesh/internal/sweep"
	"wormmesh/internal/topology"
)

// TopologyCompare compares the mesh and torus backends head-to-head:
// the torus-enabled algorithm roster run on both topologies at the
// same dimensions, offered load, and fault budget. The algorithm set is
// intersected with the torus roster for the options' dimensions
// (mesh-only fortifications have nothing to compare); nil selects the
// whole roster. Each algorithm runs fault-free and with 5% node faults
// on both kinds, at 0.1 flits/node/cycle offered — below either
// topology's saturation, so latencies compare. One row per (algorithm,
// topology, faults). Raw throughput is not directly comparable across
// kinds (the wrap links double the bisection), so the normalized column
// reports each run against its own topology's capacity.
func TopologyCompare(o Options, algorithms []string) (*report.Table, error) {
	torus := topology.NewTorus(o.Width, o.Height)
	roster := routing.TorusAlgorithmNames(torus)
	if algorithms == nil {
		algorithms = roster
	} else {
		enabled := make(map[string]bool, len(roster))
		for _, a := range roster {
			enabled[a] = true
		}
		kept := algorithms[:0:0]
		for _, a := range algorithms {
			if enabled[a] {
				kept = append(kept, a)
			}
		}
		algorithms = kept
	}
	if len(algorithms) == 0 {
		return nil, fmt.Errorf("experiments: no torus-enabled algorithms selected on %v", torus)
	}
	kinds := []string{"mesh", "torus"}
	faults := []int{0, o.Width * o.Height / 20}
	var points []sweep.Point
	for _, alg := range algorithms {
		for _, kind := range kinds {
			for _, nf := range faults {
				p := o.baseParams()
				p.Topology = kind
				p.Algorithm = alg
				p.Rate = 0.1 / float64(o.MessageLength)
				p.Faults = nf
				t, err := topology.Make(kind, o.Width, o.Height)
				if err != nil {
					return nil, err
				}
				if min, err := routing.MinVCs(alg, t); err == nil && min > p.Config.NumVCs {
					p.Config.NumVCs = min
				}
				points = append(points, sweep.Point{
					Key:    fmt.Sprintf("%s@%s/f%d", alg, kind, nf),
					Params: p,
				})
			}
		}
	}
	o.logf("topology study: %d runs (%d algorithms x %v x faults %v)",
		len(points), len(algorithms), kinds, faults)
	cells, err := o.runCells(points)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("algorithm", "topology", "faults", "latency",
		"throughput", "normalized", "detour", "killed")
	for _, reps := range cells {
		p, r := reps[0].Point.Params, reps[0].Result
		t.AddRow(p.Algorithm, p.Topology, p.Faults, r.Stats.AvgLatency(),
			r.Stats.Throughput(), r.NormalizedThroughput(), r.Stats.AvgDetour(), killedFraction(r.Stats))
	}
	return t, nil
}
