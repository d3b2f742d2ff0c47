package experiments

import (
	"wormmesh/internal/report"
	"wormmesh/internal/routing"
	"wormmesh/internal/sweep"
)

// HybridTrafficSweep is TrafficSweep with the analytic surrogate
// screening the load axis: per algorithm it predicts the saturation
// knee, simulates only the rates bracketing it, and fills the rest
// from the γ-calibrated model (stable region) or the simulated plateau
// (beyond it). Simulated cells are bit-identical to a full sweep's.
// faults > 0 sweeps a faulted mesh (fault seed o.Seed, shared across
// algorithms); radius <= 1 uses the default bracket.
//
// Unsupported cells — torus options, or faults with an algorithm
// outside the BC fortification — fail up front with an error
// satisfying errors.Is(err, analytic.ErrUnsupported); nothing is
// simulated.
//
// The data table is TrafficSweep's plus a source column holding
// sweep.SourceSimulated or sweep.SourceModel per cell; the summary
// table gives each curve's screening: the knee the surrogate predicted,
// the simulated rate bracket, the simulated and total point counts and
// the fitted contention gain γ.
func HybridTrafficSweep(o Options, algorithms []string, rates []float64, faults int, radius float64) (data, summary *report.Table, err error) {
	if rates == nil {
		rates = DefaultRates()
	}
	if algorithms == nil {
		algorithms = routing.AlgorithmNames
	}
	var curves []sweep.HybridCurve
	for _, alg := range algorithms {
		p := o.baseParams()
		p.Algorithm = alg
		p.Faults = faults
		if err := sweep.HybridSupported(p); err != nil {
			return nil, nil, err
		}
		curves = append(curves, sweep.HybridCurve{Key: alg, Base: p, Rates: rates})
	}
	o.logf("hybrid traffic sweep: %d algorithms x %d rates, surrogate-screened", len(algorithms), len(rates))
	hopt := sweep.HybridOptions{
		Workers:       o.Workers,
		BracketRadius: radius,
		Cache:         o.Cache,
	}
	if o.SweepMetrics != nil {
		// The sink's Start sees the simulated-cell count, not the full
		// grid, so the published ETA covers the work that actually runs.
		hopt.Metrics = o.SweepMetrics
	}
	hres, err := sweep.HybridSweep(curves, hopt)
	if err != nil {
		return nil, nil, err
	}
	data = report.NewTable("algorithm", "rate", "accepted_flits", "normalized_thr", "latency_cycles", "source")
	summary = report.NewTable("algorithm", "model_knee", "bracket_lo", "bracket_hi", "simulated", "total", "gamma")
	for _, hc := range hres {
		for _, hp := range hc.Points {
			data.AddRow(hc.Key, hp.Rate, hp.Accepted, hp.Normalized, hp.Latency, hp.Source)
		}
		summary.AddRow(hc.Key, hc.Knee, hc.BracketLo, hc.BracketHi, hc.Simulated, len(rates), hc.Gamma)
	}
	return data, summary, nil
}
