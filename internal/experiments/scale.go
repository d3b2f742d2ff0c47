package experiments

import (
	"fmt"

	"wormmesh/internal/report"
	"wormmesh/internal/routing"
	"wormmesh/internal/sweep"
	"wormmesh/internal/topology"
)

// Scale extends the comparison beyond the paper's 10×10 mesh: the same
// algorithms at the same relative load and fault fraction on growing
// meshes, one row per (algorithm, size). Sizes default to {10, 16,
// 20}; the fault fraction is 5% and the offered load 0.1
// flits/node/cycle (comfortably below every size's saturation so
// latencies compare).
func Scale(o Options, algorithms []string, sizes []int) (*report.Table, error) {
	if algorithms == nil {
		algorithms = []string{"NHop", "Nbc", "Duato-Nbc", "Minimal-Adaptive"}
	}
	if sizes == nil {
		sizes = []int{10, 16, 20}
	}
	var points []sweep.Point
	for _, alg := range algorithms {
		for _, size := range sizes {
			p := o.baseParams()
			p.Width, p.Height = size, size
			p.Algorithm = alg
			p.Rate = 0.1 / float64(o.MessageLength)
			p.Faults = size * size / 20
			mesh := topology.New(size, size)
			if min, err := routing.MinVCs(alg, mesh); err == nil && min > p.Config.NumVCs {
				p.Config.NumVCs = min
			}
			points = append(points, sweep.Point{
				Key:    fmt.Sprintf("%s@%d", alg, size),
				Params: p,
			})
		}
	}
	o.logf("scaling study: %d runs (%d algorithms x %v sizes)", len(points), len(algorithms), sizes)
	cells, err := o.runCells(points)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("algorithm", "mesh", "latency", "throughput", "detour")
	for _, reps := range cells {
		p, st := reps[0].Point.Params, reps[0].Result.Stats
		t.AddRow(p.Algorithm, fmt.Sprintf("%dx%d", p.Width, p.Height), st.AvgLatency(), st.Throughput(), st.AvgDetour())
	}
	return t, nil
}
