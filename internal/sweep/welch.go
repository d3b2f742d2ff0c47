package sweep

import (
	"math"

	"wormmesh/internal/sim"
)

// Welch compares two samples with unequal variances (Welch's t-test)
// — the right tool for "is algorithm A really better than B over these
// fault sets?" questions. It returns the t statistic, the
// Welch–Satterthwaite degrees of freedom, and whether the difference
// is significant at the two-sided 5% level.
func Welch(a, b Moments) (t float64, df float64, significant bool) {
	if a.N < 2 || b.N < 2 {
		return 0, 0, false
	}
	na, nb := float64(a.N), float64(b.N)
	va := a.Std() * a.Std() / na
	vb := b.Std() * b.Std() / nb
	if va+vb == 0 {
		// Zero variance: any difference in means is exact.
		return math.Inf(1), na + nb - 2, a.Mean() != b.Mean()
	}
	t = (a.Mean() - b.Mean()) / math.Sqrt(va+vb)
	df = (va + vb) * (va + vb) /
		(va*va/(na-1) + vb*vb/(nb-1))
	crit := sim.TCritical95(int(math.Max(1, math.Floor(df))))
	return t, df, math.Abs(t) > crit
}

// Comparison summarizes a Welch test between two cells on one metric.
type Comparison struct {
	MetricA, MetricB Moments
	T                float64
	DF               float64
	Significant      bool
	// Better is +1 when A's mean is higher, -1 when lower, 0 on a tie.
	Better int
}

// CompareMetric runs Welch's test on a metric extracted from two cells.
func CompareMetric(a, b Moments) Comparison {
	t, df, sig := Welch(a, b)
	c := Comparison{MetricA: a, MetricB: b, T: t, DF: df, Significant: sig}
	switch {
	case a.Mean() > b.Mean():
		c.Better = 1
	case a.Mean() < b.Mean():
		c.Better = -1
	}
	return c
}
