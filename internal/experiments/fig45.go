package experiments

import (
	"fmt"

	"wormmesh/internal/report"
	"wormmesh/internal/routing"
	"wormmesh/internal/sweep"
)

// FaultSweep runs the fault cases behind Figures 4 and 5 at saturating
// ("100%") load: one row per (algorithm, fault percentage) with the
// mean and std over fault sets of normalized throughput (Figure 4) and
// message latency (Figure 5), plus the mean killed fraction of
// generated messages. A nil faultPercents uses the paper's {0, 5, 10}.
func FaultSweep(o Options, algorithms []string, faultPercents []int) (*report.Table, error) {
	if algorithms == nil {
		algorithms = routing.AlgorithmNames
	}
	if faultPercents == nil {
		faultPercents = []int{0, 5, 10}
	}
	nodes := o.Width * o.Height
	var points []sweep.Point
	var labels [][]any
	for _, alg := range algorithms {
		for _, pct := range faultPercents {
			p := o.baseParams()
			p.Algorithm = alg
			p.Rate = o.SaturatingRate()
			p.Faults = nodes * pct / 100
			key := fmt.Sprintf("%s@%d%%", alg, pct)
			reps := o.FaultSets
			if pct == 0 {
				reps = 1 // no fault pattern to vary
			}
			points = append(points, sweep.FaultReplicas(key, p, reps)...)
			labels = append(labels, []any{alg, pct})
		}
	}
	o.logf("fault sweep: %d runs (%d algorithms x %v%% faults x %d sets)",
		len(points), len(algorithms), faultPercents, o.FaultSets)
	cells, err := o.runCells(points)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("algorithm", "faults%", "norm_throughput", "thr_std", "latency", "lat_std", "killed_frac")
	for i, reps := range cells {
		c := sweep.Aggregate(reps)[0]
		t.AddRow(append(labels[i], c.Normalized.Mean(), c.Normalized.Std(),
			c.Latency.Mean(), c.Latency.Std(), c.KilledFraction.Mean())...)
	}
	return t, nil
}
