package sim

import (
	"math"

	"wormmesh/internal/core"
)

// Statistical steady-state handling: MSER-style warm-up truncation and
// a relative-precision (batch-means CI half-width) stopping rule.
//
// Both detectors keep only their statistics: each batch is one window
// of a runner-private core.WindowSampler of width SteadyWindow, and the
// detector ingests that window's mean latency. The sampler is read-only
// and RNG-free, so a run with detection enabled follows the exact
// engine trajectory of a fixed run of the same length. That is the
// bit-exactness contract the equivalence test locks in: an "mser" run
// and a fixed run whose WarmupCycles equals the detected
// EffectiveWarmup produce identical Stats.
//
// A measured message's latency is at least one cycle, so a window's
// AvgLatency is zero exactly when it measured no delivery.

// DefaultSteadyWindow is the batch width (in cycles) used by both
// detectors when Params.SteadyWindow is zero.
const DefaultSteadyWindow = 500

// minWarmupBatches is the number of batches the warm-up detector
// collects before it starts evaluating the MSER statistic; with fewer
// observations the truncation estimate is noise.
const minWarmupBatches = 10

// warmupDetector implements a sequential MSER-style truncation rule
// over batch means of message latency. After every batch it computes
// the classic MSER truncation point d* = argmin_d var(x[d:]) / (n-d)²
// over the batch means collected so far; while the series is still in
// its transient, the minimum sits in the most recent half (truncating
// almost everything is what minimizes the statistic), so detection
// triggers only once d* falls into the FIRST half — the standard
// "d* ≤ n/2" validity heuristic. Warm-up then ends at the current
// cycle: the transient occupies the first d* batches and an equally
// long steady tail has accumulated behind it, which is exactly the
// evidence the heuristic requires.
type warmupDetector struct {
	batches []float64
}

// add ingests one closed batch; it returns true when steady state is
// detected at the batch's end.
func (d *warmupDetector) add(w core.WindowSnapshot) bool {
	// A batch with no deliveries carries the previous batch mean so the
	// series stays aligned with time; at any load worth measuring this
	// is rare.
	lat := w.AvgLatency
	if lat == 0 && len(d.batches) > 0 {
		lat = d.batches[len(d.batches)-1]
	}
	d.batches = append(d.batches, lat)
	if len(d.batches) < minWarmupBatches {
		return false
	}
	dstar, ok := mserTruncation(d.batches)
	return ok && dstar*2 <= len(d.batches)
}

// batchSampler returns the Runner's private sampler for the detectors'
// batches, width cycles each (DefaultSteadyWindow when width <= 0). Its
// one-slot ring holds the batch that just closed.
func (r *Runner) batchSampler(width int64) *core.WindowSampler {
	if width <= 0 {
		width = DefaultSteadyWindow
	}
	if r.batches == nil || r.batches.Window() != width {
		r.batches = core.NewWindowSampler(width, 1)
	}
	return r.batches
}

// lastWindow returns the batch s closed most recently.
func lastWindow(s *core.WindowSampler) core.WindowSnapshot {
	w, _ := s.Latest()
	return w
}

// mserTruncation returns the MSER truncation point over a series of
// batch means: the d in [0, n-minTail] minimizing the squared standard
// error of the truncated mean, sum_{i>=d}(x_i - mean(x[d:]))² / (n-d)².
// ok is false when the series is too short or degenerate (zero
// variance everywhere — nothing to truncate).
func mserTruncation(x []float64) (dstar int, ok bool) {
	const minTail = 5
	n := len(x)
	if n < minTail+1 {
		return 0, false
	}
	// Suffix sums let each candidate d be evaluated in O(1).
	sum, sumSq := 0.0, 0.0
	best, bestD := math.Inf(1), -1
	for d := n - 1; d >= 0; d-- {
		sum += x[d]
		sumSq += x[d] * x[d]
		m := float64(n - d)
		if int(m) < minTail {
			continue
		}
		mean := sum / m
		variance := sumSq/m - mean*mean
		if variance < 0 {
			variance = 0
		}
		// MSER statistic: variance of the tail over its length, i.e.
		// sum of squared deviations / (n-d)². Ties (a flat series)
		// break toward the smaller d — truncate as little as possible —
		// which the descending loop gets via <=.
		z := variance / m
		if z <= best {
			best = z
			bestD = d
		}
	}
	if bestD < 0 {
		return 0, false
	}
	return bestD, true
}

// ciStopper implements the relative-precision stopping rule: batch
// means of latency are accumulated during measurement, and once the
// Student-t 95% confidence half-width of their mean falls below
// rel × mean (with at least minBatches batches), measurement stops.
type ciStopper struct {
	rel     float64
	batches []float64
	// half is the most recently computed CI half-width in cycles,
	// valid once at least two batches with deliveries accumulated.
	half float64
}

// minStopBatches is the floor before the stopping rule may fire; a CI
// from a handful of batches is too optimistic to act on.
const minStopBatches = 10

// add ingests one closed batch; it returns true when the precision
// target is met at the batch's end. Batches without deliveries are
// skipped.
func (c *ciStopper) add(w core.WindowSnapshot) bool {
	if w.AvgLatency > 0 {
		c.batches = append(c.batches, w.AvgLatency)
	}
	n := len(c.batches)
	if n < 2 {
		return false
	}
	sum, sumSq := 0.0, 0.0
	for _, v := range c.batches {
		sum += v
		sumSq += v * v
	}
	fn := float64(n)
	mean := sum / fn
	variance := (sumSq - fn*mean*mean) / (fn - 1)
	if variance < 0 {
		variance = 0
	}
	c.half = TCritical95(n-1) * math.Sqrt(variance/fn)
	return n >= minStopBatches && mean > 0 && c.half <= c.rel*mean
}

// TCritical95 returns the two-sided 95% critical value of Student's t
// with df degrees of freedom (tabulated; the asymptote 1.96 beyond).
func TCritical95(df int) float64 {
	table := []float64{0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
		2.306, 2.262, 2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
		2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060,
		2.056, 2.052, 2.048, 2.045, 2.042}
	if df < len(table) {
		return table[df]
	}
	switch {
	case df >= 120:
		return 1.980
	case df >= 60:
		return 2.000
	case df >= 40:
		return 2.021
	default:
		return 2.030
	}
}
