package experiments

import (
	"fmt"
	"strconv"

	"wormmesh/internal/report"
	"wormmesh/internal/routing"
	"wormmesh/internal/sim"
	"wormmesh/internal/sweep"
)

// DefaultHotspotFaults are the random-fault cases of the hotspot study
// (in addition to the canned Figure 6 pattern): 2%, 5% and 10% of the
// paper's 10×10 mesh.
var DefaultHotspotFaults = []int{2, 5, 10}

// KneeRate is the offered load at the faulty mesh's saturation onset:
// 15% of the 100% traffic load. Fault blocks cut the usable bisection,
// so the faulty configurations sit at the top of their latency knee
// here — the regime where congestion is localized rather than global.
func (o Options) KneeRate() float64 {
	return 0.15 * o.SaturatingRate()
}

// Hotspot measures WHERE congestion sits: for each algorithm, fault
// case and load it runs with per-link telemetry enabled and splits
// blocked and busy cycles into on-f-ring links versus the rest. The
// BC-fortified algorithms funnel misrouted traffic onto the rings, so
// at the saturation knee their on-ring links block disproportionately
// (ratio > 1); past saturation blocking goes global while the busy
// split keeps the rings on top — the spatial mechanism behind Figure
// 6's load imbalance.
//
// One row per (algorithm, case, load), case "fig6" or the random fault
// count, load "knee" (saturation onset) or "sat" (100% load). Columns:
// the seed faults, on-/off-ring link counts, mean blocked cycles per
// on-/off-ring link and their ratio, the busy-cycle ratio (utilization
// imbalance, which survives past saturation while the blocked split
// washes out), the shares of total message latency spent blocked and on
// f-ring traversal in percent, and latency percentiles. Alongside come
// the blocked-cycle link maps of each algorithm's Figure 6 knee run, in
// algorithm order.
func Hotspot(o Options, algorithms []string, faultCounts []int) (*report.Table, []*report.LinkView, error) {
	if algorithms == nil {
		algorithms = routing.AlgorithmNames
	}
	if faultCounts == nil {
		faultCounts = DefaultHotspotFaults
	}
	cases := []string{"fig6"}
	for _, f := range faultCounts {
		cases = append(cases, strconv.Itoa(f))
	}
	loads := []string{"knee", "sat"}
	rates := []float64{o.KneeRate(), o.SaturatingRate()}
	var points []sweep.Point
	var labels [][]any
	for _, alg := range algorithms {
		for ci := range cases {
			for li, load := range loads {
				p := o.baseParams()
				p.Algorithm = alg
				p.Rate = rates[li]
				p.Config.ChannelTelemetry = true
				if ci == 0 {
					p.FaultNodes = o.Fig6FaultNodes()
				} else {
					p.Faults = faultCounts[ci-1]
				}
				points = append(points, sweep.Point{
					Key:    fmt.Sprintf("%s@%s/%s", alg, cases[ci], load),
					Params: p,
				})
				labels = append(labels, []any{alg, cases[ci], load})
			}
		}
	}
	o.logf("hotspot: %d runs (%d algorithms × %d fault cases × %d loads, link telemetry on)",
		len(points), len(algorithms), len(cases), len(loads))
	cells, err := o.runCells(points)
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("algorithm", "case", "load", "faults",
		"ring_links", "other_links",
		"onring_blocked_mean", "offring_blocked_mean", "blocked_ratio", "busy_ratio",
		"blocked_share%", "ring_overlay_share%", "p50", "p95", "p99")
	var views []*report.LinkView
	for i, reps := range cells {
		r := reps[0].Result
		blocked, err := r.RingSplit(sim.LinkBlocked)
		if err != nil {
			return nil, nil, err
		}
		busy, err := r.RingSplit(sim.LinkBusy)
		if err != nil {
			return nil, nil, err
		}
		st := r.Stats
		var blockedShare, ringShare float64
		if st.LatencySum > 0 {
			blockedShare = float64(st.LatBlockedSum) / float64(st.LatencySum)
			ringShare = float64(st.LatRingSum) / float64(st.LatencySum)
		}
		t.AddRow(append(labels[i], r.SeedFaults,
			blocked.OnRingLinks, blocked.OffRingLinks,
			blocked.OnRingMean, blocked.OffRingMean,
			blocked.Ratio(), busy.Ratio(),
			100*blockedShare, 100*ringShare,
			st.Percentile(50), st.Percentile(95), st.Percentile(99))...)
		if labels[i][1] == "fig6" && labels[i][2] == "knee" {
			lv, err := r.LinkView(sim.LinkBlocked)
			if err != nil {
				return nil, nil, err
			}
			lv.Title = fmt.Sprintf("%s: blocked cycles per link per cycle, Figure 6 pattern at knee load (X = faulty, o = f-ring node):", labels[i][0])
			views = append(views, lv)
		}
	}
	return t, views, nil
}
