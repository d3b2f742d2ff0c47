package experiments

import (
	"fmt"

	"wormmesh/internal/report"
	"wormmesh/internal/routing"
	"wormmesh/internal/sweep"
	"wormmesh/internal/topology"
)

// ScaleResult extends the comparison beyond the paper's 10×10 mesh:
// the same algorithms at the same relative load and fault fraction on
// growing meshes.
type ScaleResult struct {
	Sizes      []int
	Algorithms []string
	// Latency[alg][i] etc. index Sizes.
	Latency    map[string][]float64
	Throughput map[string][]float64
	Detour     map[string][]float64
}

// Scale runs the scaling study. Sizes default to {10, 16, 20}; the
// fault fraction is 5% and the offered load 0.1 flits/node/cycle
// (comfortably below every size's saturation so latencies compare).
func Scale(o Options, algorithms []string, sizes []int) (*ScaleResult, error) {
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
	outcomes := o.runSweep(points)
	if err := sweep.FirstError(outcomes); err != nil {
		return nil, err
	}
	res := &ScaleResult{
		Sizes:      sizes,
		Algorithms: algorithms,
		Latency:    map[string][]float64{},
		Throughput: map[string][]float64{},
		Detour:     map[string][]float64{},
	}
	i := 0
	for _, alg := range algorithms {
		for range sizes {
			st := outcomes[i].Result.Stats
			res.Latency[alg] = append(res.Latency[alg], st.AvgLatency())
			res.Throughput[alg] = append(res.Throughput[alg], st.Throughput())
			res.Detour[alg] = append(res.Detour[alg], st.AvgDetour())
			i++
		}
		o.logf("  %-18s latency %v", alg, formatSeries(res.Latency[alg]))
	}
	return res, nil
}

// Table renders the scaling study.
func (r *ScaleResult) Table() *report.Table {
	t := report.NewTable("algorithm", "mesh", "latency", "throughput", "detour")
	for _, alg := range r.Algorithms {
		for i, size := range r.Sizes {
			t.AddRow(alg, fmt.Sprintf("%dx%d", size, size),
				r.Latency[alg][i], r.Throughput[alg][i], r.Detour[alg][i])
		}
	}
	return t
}
