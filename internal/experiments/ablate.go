package experiments

import (
	"fmt"

	"wormmesh/internal/core"
	"wormmesh/internal/report"
	"wormmesh/internal/routing"
	"wormmesh/internal/sim"
	"wormmesh/internal/sweep"
	"wormmesh/internal/topology"
)

// runAblation sweeps one parameter of one algorithm at half the
// saturating load: one row per value with accepted throughput, mean
// latency and the killed fraction of generated messages.
func (o Options) runAblation(param, alg string, values []string, configure func(*sim.Params, int)) (*report.Table, error) {
	var points []sweep.Point
	for i := range values {
		p := o.baseParams()
		p.Algorithm = alg
		p.Rate = o.SaturatingRate() / 2 // busy but not wedged: differences visible
		configure(&p, i)
		points = append(points, sweep.Point{Key: values[i], Params: p})
	}
	o.logf("ablation %s on %s: %d runs", param, alg, len(points))
	cells, err := o.runCells(points)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(param, "throughput", "latency", "killed_frac")
	for _, reps := range cells {
		st := reps[0].Result.Stats
		t.AddRow(reps[0].Point.Key, st.Throughput(), st.AvgLatency(), killedFraction(st))
	}
	return t, nil
}

// killedFraction is the share of generated messages the watchdog
// killed (0 when nothing was generated).
func killedFraction(st core.Stats) float64 {
	if st.Generated == 0 {
		return 0
	}
	return float64(st.Killed) / float64(st.Generated)
}

// AblateVCs sweeps the virtual-channel count for one algorithm (the
// paper's "throughput is affected by the number of virtual channels"
// claim for the first category). Counts below the algorithm's minimum
// are skipped.
func (o Options) AblateVCs(alg string, counts []int) (*report.Table, error) {
	if counts == nil {
		counts = []int{6, 8, 12, 16, 24, 32}
	}
	mesh := topology.New(o.Width, o.Height)
	min, err := routing.MinVCs(alg, mesh)
	if err != nil {
		return nil, err
	}
	var kept []int
	for _, c := range counts {
		if c >= min {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("experiments: no VC count >= %s's minimum %d", alg, min)
	}
	values := make([]string, len(kept))
	for i, c := range kept {
		values[i] = fmt.Sprintf("%d", c)
	}
	return o.runAblation("num_vcs", alg, values, func(p *sim.Params, i int) {
		p.Config.NumVCs = kept[i]
	})
}

// AblateBufDepth sweeps the per-VC buffer depth (a parameter the paper
// never states; the ablation quantifies its influence).
func (o Options) AblateBufDepth(alg string, depths []int) (*report.Table, error) {
	if depths == nil {
		depths = []int{1, 2, 4, 8}
	}
	values := make([]string, len(depths))
	for i, d := range depths {
		values[i] = fmt.Sprintf("%d", d)
	}
	return o.runAblation("buf_depth", alg, values, func(p *sim.Params, i int) {
		p.Config.BufDepth = depths[i]
	})
}

// AblateMessageLength sweeps the fixed message length over the values
// the literature commonly considers (the paper: "fixed-length messages
// with 32, 64, or 100 flits are commonly considered; we have used
// 100"). The offered load in flits/node/cycle is held constant so the
// comparison isolates the length effect.
func (o Options) AblateMessageLength(alg string, lengths []int) (*report.Table, error) {
	if lengths == nil {
		lengths = []int{32, 64, 100}
	}
	flitLoad := o.SaturatingRate() / 2 * float64(o.MessageLength)
	values := make([]string, len(lengths))
	for i, l := range lengths {
		values[i] = fmt.Sprintf("%d", l)
	}
	return o.runAblation("msg_length", alg, values, func(p *sim.Params, i int) {
		p.MessageLength = lengths[i]
		p.Rate = flitLoad / float64(lengths[i])
	})
}

// AblateSelection sweeps the free-channel selection policy (the
// engine's stand-in for the paper's unspecified adaptive selection).
func (o Options) AblateSelection(alg string) (*report.Table, error) {
	policies := []core.SelectionPolicy{core.SelectRandomChannel, core.SelectRandomDir, core.SelectLowestVC}
	values := make([]string, len(policies))
	for i, p := range policies {
		values[i] = p.String()
	}
	return o.runAblation("selection", alg, values, func(p *sim.Params, i int) {
		p.Config.Selection = policies[i]
	})
}
