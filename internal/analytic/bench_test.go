package analytic

import "testing"

// BenchmarkPredict is the fault-free surrogate's per-query cost: the
// price of answering one (rate → latency) question from the closed
// form instead of a simulation.
func BenchmarkPredict(b *testing.B) {
	mo := Default()
	rate := 0.5 * mo.SaturationRate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mo.Predict(rate); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictFaulted prices a faulted prediction: the fixed point
// and source-wait terms run over the fortified route-load tables
// (O(pairs + channels) per query) instead of the mesh closed forms.
// The route walk itself is paid once in WithFaults, outside the loop —
// the point of the cached tables.
func BenchmarkPredictFaulted(b *testing.B) {
	mo := Default()
	fm, err := mo.WithFaults(fig6Block(b, mo.Topo))
	if err != nil {
		b.Fatal(err)
	}
	rate := 0.5 * fm.SaturationRate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fm.Predict(rate); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWithFaults prices building the faulted tables themselves:
// the full fortified route walk plus per-pair bottleneck extraction.
// This is the one-time cost a hybrid sweep pays per curve.
func BenchmarkWithFaults(b *testing.B) {
	mo := Default()
	f := fig6Block(b, mo.Topo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mo.WithFaults(f); err != nil {
			b.Fatal(err)
		}
	}
}
