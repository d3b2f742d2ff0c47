package experiments

import (
	"fmt"
	"math"

	"wormmesh/internal/analytic"
	"wormmesh/internal/report"
	"wormmesh/internal/sim"
	"wormmesh/internal/sweep"
	"wormmesh/internal/topology"
)

// ModelValidation runs the simulator at each rate (fault-free,
// Minimal-Adaptive: the configuration closest to the model's
// assumptions), evaluates the analytic model, and calibrates the
// contention gain on the first rate. It returns one row per rate with
// the simulated, uncalibrated-model and calibrated-model latencies (-1
// where the model predicts saturation), and the fitted gain.
func (o Options) ModelValidation(rates []float64) (*report.Table, float64, error) {
	if rates == nil {
		rates = []float64{0.0005, 0.001, 0.0015, 0.002}
	}
	var points []sweep.Point
	for _, rate := range rates {
		p := o.baseParams()
		p.Algorithm = "Minimal-Adaptive"
		p.Rate = rate
		points = append(points, sweep.Point{Key: fmt.Sprintf("%g", rate), Params: p})
	}
	o.logf("model validation: %d simulator runs", len(points))
	cells, err := o.runCells(points)
	if err != nil {
		return nil, 0, err
	}
	model := analytic.Default()
	model.Topo = topology.New(o.Width, o.Height)
	model.MessageLength = o.MessageLength
	calibrated, err := model.Calibrate(rates[0], cells[0][0].Result.Stats.AvgLatency())
	if err != nil {
		return nil, 0, err
	}
	t := report.NewTable("rate", "simulated", "model_raw", "model_calibrated")
	for i, rate := range rates {
		t.AddRow(rate, cells[i][0].Result.Stats.AvgLatency(), predicted(model, rate), predicted(calibrated, rate))
	}
	return t, calibrated.ContentionGain, nil
}

// predicted is the model's latency at rate, or -1 past its saturation.
func predicted(m analytic.Model, rate float64) float64 {
	if p, err := m.Predict(rate); err == nil {
		return p.Latency
	}
	return -1
}

// FaultedModelValidation validates the faulted surrogate per fault
// scenario — the paper's fig6 block pattern and 2/5/10 random-fault
// cases: calibrate γ at one stable rate (0.55 of the predicted knee)
// and compare predictions against the simulator at 0.35 and 0.75 of
// the knee. Each simulated latency averages two traffic seeds — near
// the knee a single short run's transient noise would swamp the model
// error being measured. The algorithm is Minimal-Adaptive throughout,
// matching ModelValidation. Rows are (scenario, rate) with the
// absolute relative error in percent (0 at the anchor by construction)
// and the scenario's γ.
func (o Options) FaultedModelValidation() (*report.Table, error) {
	type scenario struct {
		name  string
		setup func(p *sim.Params)
	}
	scenarios := []scenario{
		{"fig6-block", func(p *sim.Params) { p.FaultNodes = o.Fig6FaultNodes() }},
		{"2-random", func(p *sim.Params) { p.Faults = 2; p.FaultSeed = o.Seed + 10 }},
		{"5-random", func(p *sim.Params) { p.Faults = 5; p.FaultSeed = o.Seed + 11 }},
		{"10-random", func(p *sim.Params) { p.Faults = 10; p.FaultSeed = o.Seed + 12 }},
	}
	const seedsPerPoint = 2
	fracs := []float64{0.35, 0.55, 0.75}
	const anchorIdx = 1

	var points []sweep.Point
	models := make([]analytic.Model, len(scenarios))
	for si, sc := range scenarios {
		base := o.baseParams()
		base.Algorithm = "Minimal-Adaptive"
		sc.setup(&base)
		model, err := sweep.Surrogate(base)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		models[si] = model
		knee := model.SaturationRate()
		for _, frac := range fracs {
			for s := 0; s < seedsPerPoint; s++ {
				p := base
				p.Rate = frac * knee
				p.Seed = o.Seed + int64(s)
				points = append(points, sweep.Point{Key: fmt.Sprintf("%s@%g", sc.name, p.Rate), Params: p})
			}
		}
	}
	o.logf("faulted model validation: %d simulator runs (%d scenarios x %d rates x %d seeds)",
		len(points), len(scenarios), len(fracs), seedsPerPoint)
	cells, err := o.runCells(points)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("scenario", "rate", "simulated_lat", "model_lat", "err_pct", "gamma")
	for si, sc := range scenarios {
		rates := make([]float64, len(fracs))
		simulated := make([]float64, len(fracs))
		for ri := range fracs {
			reps := cells[si*len(fracs)+ri]
			rates[ri] = reps[0].Point.Params.Rate
			for _, rep := range reps {
				simulated[ri] += rep.Result.Stats.AvgLatency() / seedsPerPoint
			}
		}
		cal, err := models[si].Calibrate(rates[anchorIdx], simulated[anchorIdx])
		if err != nil {
			return nil, fmt.Errorf("%s: calibrate: %w", sc.name, err)
		}
		for ri, rate := range rates {
			pred, err := cal.Predict(rate)
			if err != nil {
				return nil, fmt.Errorf("%s rate %g: %w", sc.name, rate, err)
			}
			errPct := 100 * math.Abs(pred.Latency-simulated[ri]) / simulated[ri]
			t.AddRow(sc.name, rate, simulated[ri], pred.Latency, errPct, cal.ContentionGain)
		}
	}
	return t, nil
}
