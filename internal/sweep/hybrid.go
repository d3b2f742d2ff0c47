package sweep

import (
	"fmt"
	"math"
	"sort"

	"wormmesh/internal/analytic"
	"wormmesh/internal/sim"
)

// Point provenance values recorded per hybrid sweep cell.
const (
	// SourceSimulated marks a cell whose numbers come from a flit-level
	// simulation, bit-identical to a full sweep of the same Params.
	SourceSimulated = "simulated"
	// SourceModel marks a cell filled by the calibrated analytic
	// surrogate (stable region) or the simulated plateau (beyond it).
	SourceModel = "model"
)

// HybridCurve is one load curve of a hybrid sweep: a key, the shared
// simulation parameters, and the ascending rate axis. Base.Rate is
// overridden per point.
type HybridCurve struct {
	Key   string
	Base  sim.Params
	Rates []float64
}

// HybridOptions tunes HybridSweep.
type HybridOptions struct {
	// Workers for the simulated batch (0 = NumCPU, as Run).
	Workers int
	// BracketRadius widens the simulated window around the surrogate's
	// predicted knee k: grid rates in [k/BracketRadius, k·BracketRadius]
	// are simulated (plus the two rates straddling k, always). Default
	// 1.3; larger values trade speed for a safer bracket.
	BracketRadius float64
	// Progress receives completed/total counts for the simulated batch.
	Progress func(done, total int)
	// Metrics, when non-nil, receives the batch lifecycle. Start is
	// called with the simulated-cell count — not the full grid — so the
	// published ETA extrapolates over the cells that actually run
	// instead of overestimating by the model-filled fraction.
	Metrics ProgressSink
	// Cache, when non-nil, answers simulated cells without running them
	// and files fresh results for the next sweep.
	Cache Cache
}

// HybridPoint is one cell of a hybrid curve.
type HybridPoint struct {
	Rate   float64
	Source string // SourceSimulated or SourceModel
	// Result holds the full simulation outcome for simulated cells
	// (zero value for model cells).
	Result     sim.Result
	Latency    float64 // cycles
	Accepted   float64 // flits/node/cycle
	Normalized float64 // fraction of bisection capacity
}

// HybridCurveResult is one curve's outcome.
type HybridCurveResult struct {
	Key string
	// Gamma is the fitted contention gain (1 when calibration was not
	// possible); Knee the surrogate's predicted saturation rate.
	Gamma float64
	Knee  float64
	// BracketLo/Hi bound the simulated rates: the knee bracket the
	// simulator was scheduled into.
	BracketLo, BracketHi float64
	Points               []HybridPoint
	Simulated            int
}

// HybridSweep runs an analytic-guided load sweep: per curve the
// surrogate (built once per SurrogateClass) screens the rate axis in
// microseconds, predicts the saturation knee, and schedules flit-level
// simulation only for the rates bracketing it (plus the straddle pair).
// The simulated cells go through the same Run worker pool as a full
// sweep — each worker owns one Runner whose reuse is observably
// transparent — so their Stats are bit-identical to the full sweep's.
// Stable-region cells outside the bracket are filled by the surrogate
// after a single-γ calibration at the lowest simulated stable rate;
// cells beyond the bracket carry the highest simulated point's plateau.
// Every point records its provenance in Source.
func HybridSweep(curves []HybridCurve, opt HybridOptions) ([]HybridCurveResult, error) {
	radius := opt.BracketRadius
	if radius <= 1 {
		radius = 1.3
	}
	type plan struct {
		curve HybridCurve
		model analytic.Model
		knee  float64
		sim   map[float64]bool
	}
	// Curves differing only in algorithm or rate share one surrogate.
	var surrogates Surrogates
	plans := make([]plan, 0, len(curves))
	var points []Point
	for _, c := range curves {
		if len(c.Rates) == 0 {
			return nil, fmt.Errorf("sweep: hybrid curve %q has no rates", c.Key)
		}
		if !sort.Float64sAreSorted(c.Rates) {
			return nil, fmt.Errorf("sweep: hybrid curve %q rates not ascending", c.Key)
		}
		model, knee, err := surrogates.Get(c.Base)
		if err != nil {
			return nil, fmt.Errorf("sweep: curve %q: %w", c.Key, err)
		}
		simSet := map[float64]bool{}
		var below, above float64
		haveBelow, haveAbove := false, false
		for _, r := range c.Rates {
			if r >= knee/radius && r <= knee*radius {
				simSet[r] = true
			}
			if r < knee {
				below, haveBelow = r, true
			} else if !haveAbove {
				above, haveAbove = r, true
			}
		}
		// Always simulate the straddle pair so the measured knee cannot
		// slip between two model-filled cells.
		if haveBelow {
			simSet[below] = true
		}
		if haveAbove {
			simSet[above] = true
		}
		if len(simSet) == 0 {
			// Knee outside the whole grid; anchor on the nearest end.
			simSet[c.Rates[0]] = true
		}
		plans = append(plans, plan{curve: c, model: model, knee: knee, sim: simSet})
		for _, r := range c.Rates {
			if simSet[r] {
				p := c.Base
				p.Rate = r
				points = append(points, Point{Key: fmt.Sprintf("%s@%g", c.Key, r), Params: p})
			}
		}
	}

	progress := opt.Progress
	if opt.Metrics != nil {
		opt.Metrics.Start(len(points))
		user := opt.Progress
		progress = func(done, total int) {
			opt.Metrics.Progress(done, total)
			if user != nil {
				user(done, total)
			}
		}
	}
	outcomes := RunCached(points, opt.Workers, progress, opt.Cache)
	if opt.Metrics != nil {
		opt.Metrics.Finish()
	}
	if err := FirstError(outcomes); err != nil {
		return nil, err
	}
	byKey := make(map[string]Outcome, len(outcomes))
	for _, out := range outcomes {
		byKey[out.Point.Key] = out
	}

	results := make([]HybridCurveResult, 0, len(plans))
	for _, pl := range plans {
		res := HybridCurveResult{
			Key:   pl.curve.Key,
			Gamma: 1,
			Knee:  pl.knee,
		}
		// Calibrate γ at the lowest simulated rate the model can still
		// predict: just below the knee the contention delta is large,
		// so the single-point fit is well conditioned.
		cal := pl.model
		for _, r := range pl.curve.Rates {
			if !pl.sim[r] {
				continue
			}
			out := byKey[fmt.Sprintf("%s@%g", pl.curve.Key, r)]
			if _, err := pl.model.Predict(r); err != nil {
				break // this and later rates are model-saturated
			}
			if c, err := pl.model.Calibrate(r, out.Result.Stats.AvgLatency()); err == nil {
				cal = c
				res.Gamma = c.ContentionGain
			}
			break
		}

		var lastSim *HybridPoint
		for _, r := range pl.curve.Rates {
			if pl.sim[r] {
				out := byKey[fmt.Sprintf("%s@%g", pl.curve.Key, r)]
				hp := HybridPoint{
					Rate:       r,
					Source:     SourceSimulated,
					Result:     out.Result,
					Latency:    out.Result.Stats.AvgLatency(),
					Accepted:   out.Result.Stats.Throughput(),
					Normalized: out.Result.NormalizedThroughput(),
				}
				res.Points = append(res.Points, hp)
				res.Simulated++
				if res.BracketLo == 0 || r < res.BracketLo {
					res.BracketLo = r
				}
				if r > res.BracketHi {
					res.BracketHi = r
				}
				lastSim = &res.Points[len(res.Points)-1]
				continue
			}
			hp := HybridPoint{Rate: r, Source: SourceModel}
			if pred, err := cal.Predict(r); err == nil && r < pl.knee {
				// Stable region: all offered traffic is accepted.
				hp.Latency = pred.Latency
				hp.Accepted = r * float64(pl.curve.Base.MessageLength)
				hp.Normalized = hp.Accepted / meshCapacity(pl.curve.Base)
			} else if lastSim != nil {
				// Past the bracket: the curve has flattened; carry the
				// highest simulated plateau.
				hp.Latency = lastSim.Latency
				hp.Accepted = lastSim.Accepted
				hp.Normalized = lastSim.Normalized
			} else {
				hp.Latency = math.NaN()
			}
			res.Points = append(res.Points, hp)
		}
		results = append(results, res)
	}
	return results, nil
}

// meshCapacity mirrors sim.Result.NormalizedThroughput's denominator
// for model-filled points.
func meshCapacity(p sim.Params) float64 {
	minDim := p.Width
	if p.Height < minDim {
		minDim = p.Height
	}
	return 4 * float64(minDim) / float64(p.Width*p.Height)
}
