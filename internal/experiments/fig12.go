package experiments

import (
	"fmt"

	"wormmesh/internal/report"
	"wormmesh/internal/routing"
	"wormmesh/internal/sweep"
)

// DefaultRates spans the paper's x axis: 0.0001 to 0.0351 messages
// per node per cycle.
func DefaultRates() []float64 {
	return []float64{0.0001, 0.0011, 0.0021, 0.0031, 0.0041, 0.0051,
		0.0076, 0.0101, 0.0151, 0.0201, 0.0251, 0.0301, 0.0351}
}

// TrafficSweep runs the fault-free load sweep behind Figures 1 and 2:
// one row per (algorithm, rate) with accepted flits/node/cycle, that
// throughput as a fraction of bisection capacity (Figure 1's y axis)
// and mean message latency in cycles (Figure 2). A nil rates slice uses
// DefaultRates; a nil algorithms slice uses all eleven configurations.
func TrafficSweep(o Options, algorithms []string, rates []float64) (*report.Table, error) {
	if rates == nil {
		rates = DefaultRates()
	}
	if algorithms == nil {
		algorithms = routing.AlgorithmNames
	}
	var points []sweep.Point
	for _, alg := range algorithms {
		for _, rate := range rates {
			p := o.baseParams()
			p.Algorithm = alg
			p.Rate = rate
			p.Faults = 0
			points = append(points, sweep.Point{
				Key:    fmt.Sprintf("%s@%g", alg, rate),
				Params: p,
			})
		}
	}
	o.logf("traffic sweep: %d runs (%d algorithms x %d rates)", len(points), len(algorithms), len(rates))
	cells, err := o.runCells(points)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("algorithm", "rate", "accepted_flits", "normalized_thr", "latency_cycles")
	for _, reps := range cells {
		p, r := reps[0].Point.Params, reps[0].Result
		t.AddRow(p.Algorithm, p.Rate, r.Stats.Throughput(), r.NormalizedThroughput(), r.Stats.AvgLatency())
	}
	return t, nil
}

// SaturationPoints searches each algorithm's saturation point on the
// fault-free mesh (the paper's "NHop starts to saturate after 0.066"
// style of observation): from 0.0005 it doubles the offered rate until
// accepted throughput stops improving by more than 3%, for at most 8
// runs, and reports the best rate with its accepted flits/node/cycle.
// Each doubling round runs as one batch over the algorithms still
// searching.
func (o Options) SaturationPoints(algorithms []string) (*report.Table, error) {
	if algorithms == nil {
		algorithms = routing.AlgorithmNames
	}
	type search struct {
		rate, bestRate, best float64
		done                 bool
	}
	tol, start := 0.03, 0.0005
	s := make([]search, len(algorithms))
	for i := range s {
		s[i].rate, s[i].bestRate = start, start
	}
	for round := 0; round < 8; round++ {
		var points []sweep.Point
		var searching []*search
		for i, alg := range algorithms {
			if !s[i].done {
				p := o.baseParams()
				p.Algorithm = alg
				p.Rate = s[i].rate
				points = append(points, sweep.Point{Key: fmt.Sprintf("%s@%g", alg, p.Rate), Params: p})
				searching = append(searching, &s[i])
			}
		}
		if len(points) == 0 {
			break
		}
		cells, err := o.runCells(points)
		if err != nil {
			return nil, err
		}
		for j, reps := range cells {
			st := searching[j]
			if thr := reps[0].Result.Stats.Throughput(); thr > st.best*(1+tol) {
				st.best, st.bestRate = thr, st.rate
				st.rate *= 2
			} else {
				st.done = true
			}
		}
	}
	t := report.NewTable("algorithm", "saturation_rate", "saturation_throughput")
	for i, alg := range algorithms {
		o.logf("  %-18s saturates by rate %.4f at %.4f flits/node/cycle", alg, s[i].bestRate, s[i].best)
		t.AddRow(alg, s[i].bestRate, s[i].best)
	}
	return t, nil
}
