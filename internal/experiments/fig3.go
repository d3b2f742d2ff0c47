package experiments

import (
	"fmt"

	"wormmesh/internal/report"
	"wormmesh/internal/routing"
	"wormmesh/internal/sweep"
)

// VCUsage runs Figure 3 (faultPercent in whole percent of nodes; the
// paper uses 5) at a near-saturation load so the channel pressure the
// figure discusses is visible. The table is wide: one row per virtual
// channel ("VC0", ...) and one column per algorithm holding the mean
// fraction of cycles that VC was owned, averaged over physical
// channels and fault sets.
func VCUsage(o Options, algorithms []string, faultPercent int) (*report.Table, error) {
	if algorithms == nil {
		algorithms = routing.AlgorithmNames
	}
	base := o.baseParams()
	base.Rate = o.SaturatingRate()
	nodes := o.Width * o.Height
	base.Faults = nodes * faultPercent / 100

	var points []sweep.Point
	for _, alg := range algorithms {
		p := base
		p.Algorithm = alg
		points = append(points, sweep.FaultReplicas(alg, p, o.FaultSets)...)
	}
	o.logf("VC usage: %d runs (%d algorithms x %d fault sets, %d%% faults)",
		len(points), len(algorithms), o.FaultSets, faultPercent)
	cells, err := o.runCells(points)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(append([]string{"vc"}, algorithms...)...)
	for v := 0; v < base.Config.NumVCs; v++ {
		row := []any{fmt.Sprintf("VC%d", v)}
		for _, reps := range cells {
			mean := 0.0
			for _, rep := range reps {
				mean += rep.Result.Stats.VCUtilization()[v] / float64(len(reps))
			}
			row = append(row, mean)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Imbalance returns max/mean utilization over the VCs an algorithm
// actually touched — Figure 3's "balanced use of virtual channels" in
// one number (1.0 = perfectly even). u is one algorithm's column of the
// VCUsage table.
func Imbalance(u []float64) float64 {
	var max, sum float64
	n := 0
	for _, v := range u {
		if v > 0 {
			sum += v
			n++
			if v > max {
				max = v
			}
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return max / (sum / float64(n))
}
