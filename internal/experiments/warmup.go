package experiments

import (
	"fmt"

	"wormmesh/internal/report"
	"wormmesh/internal/sim"
	"wormmesh/internal/sweep"
)

// DefaultWarmupFractions are the fixed-truncation ladder of the study,
// as fractions of the configured warm-up budget. 1 is the reference
// every bias is measured against.
var DefaultWarmupFractions = []float64{0, 0.25, 1}

// Warmup quantifies warm-up sensitivity across the saturation knee:
// for each offered load it measures the same cell under a ladder of
// fixed truncations (including none) and under MSER detection, then
// reports each variant's latency bias against the full-budget fixed
// reference. Two questions get numeric answers: how much bias does
// skipping warm-up leave at each load, and does the detected truncation
// point reach the reference's measurement unbiased while discarding
// fewer cycles.
//
// One row per (rate, policy), policy "fixed-<fraction>" or "mser":
// the warm-up budget the run was given, the warm-up it actually
// discarded (the detected truncation point for mser), latency, the
// latency bias in percent against the same rate's full-budget fixed
// reference, and throughput.
func Warmup(o Options, algorithm string, faults int, kneeFractions []float64) (*report.Table, error) {
	if algorithm == "" {
		algorithm = "Duato-Nbc"
	}
	if kneeFractions == nil {
		kneeFractions = []float64{0.5, 0.8, 1.0, 1.2}
	}
	knee := o.KneeRate()
	var points []sweep.Point
	var labels [][]any
	add := func(rate float64, variant string, mut func(*sim.Params)) {
		p := o.baseParams()
		p.Algorithm = algorithm
		p.Faults = faults
		p.Rate = rate
		mut(&p)
		points = append(points, sweep.Point{
			Key:    fmt.Sprintf("%s@%g/%s", algorithm, rate, variant),
			Params: p,
		})
		labels = append(labels, []any{rate, variant, p.WarmupCycles})
	}
	for _, kf := range kneeFractions {
		rate := kf * knee
		for _, frac := range DefaultWarmupFractions {
			frac := frac
			add(rate, fmt.Sprintf("fixed-%g", frac), func(p *sim.Params) {
				p.WarmupCycles = int64(frac * float64(o.WarmupCycles))
			})
		}
		add(rate, "mser", func(p *sim.Params) {
			p.WarmupMode = "mser"
			// Scale the batch width to the budget so detection has the
			// ~20 batches it needs regardless of -quick vs paper scale
			// (at the paper's 10 000-cycle budget this is the default 500).
			p.SteadyWindow = o.WarmupCycles / 20
			if p.SteadyWindow < 50 {
				p.SteadyWindow = 50
			}
		})
	}
	o.logf("warmup: %d runs (%s, %d faults, %d loads × %d policies)",
		len(points), algorithm, faults, len(kneeFractions), len(DefaultWarmupFractions)+1)
	cells, err := o.runCells(points)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("rate", "policy", "warmup_budget", "effective_warmup",
		"latency_cycles", "latency_bias%", "throughput")
	for i, reps := range cells {
		st := reps[0].Result.Stats
		t.AddRow(append(labels[i], st.EffectiveWarmup, st.AvgLatency(), 0.0, st.Throughput())...)
	}
	// Bias against each rate's full-budget fixed reference.
	refPolicy := fmt.Sprintf("fixed-%g", DefaultWarmupFractions[len(DefaultWarmupFractions)-1])
	for _, row := range t.Rows {
		if ref := t.Float("latency_cycles", "rate", row[0], "policy", refPolicy); ref > 0 {
			row[5] = 100 * (row[4].(float64) - ref) / ref
		}
	}
	return t, nil
}
