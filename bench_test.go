package wormmesh_test

import (
	"testing"

	"wormmesh"
	"wormmesh/internal/experiments"
	"wormmesh/internal/report"
)

// One benchmark per figure of the paper. Each runs the same experiment
// definition that cmd/experiments uses at publication scale, reduced
// to bench-friendly cycle counts, and reports the figure's headline
// numbers as custom metrics. Regenerate the full figures with:
//
//	go run ./cmd/experiments all            # paper scale
//	go run ./cmd/experiments -quick all     # CI scale
func benchOptions() experiments.Options {
	o := experiments.Quick()
	o.WarmupCycles = 300
	o.MeasureCycles = 1200
	o.FaultSets = 2
	return o
}

// BenchmarkFig1Throughput regenerates Figure 1: saturation throughput
// of all eleven configurations against the traffic generation rate on
// the fault-free 10×10 mesh.
func BenchmarkFig1Throughput(b *testing.B) {
	o := benchOptions()
	rates := []float64{0.002, 0.006, 0.012}
	var last *report.Table
	for i := 0; i < b.N; i++ {
		res, err := experiments.TrafficSweep(o, nil, rates)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(peakThroughput(last, "Duato-Nbc"), "peakThr/Duato-Nbc")
	b.ReportMetric(peakThroughput(last, "PHop"), "peakThr/PHop")
}

// BenchmarkFig2Latency regenerates Figure 2: average message latency
// against the traffic generation rate (same sweep, latency metric).
func BenchmarkFig2Latency(b *testing.B) {
	o := benchOptions()
	rates := []float64{0.001, 0.003}
	var last *report.Table
	for i := 0; i < b.N; i++ {
		res, err := experiments.TrafficSweep(o, nil, rates)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Float("latency_cycles", "algorithm", "Duato-Nbc"), "latency/Duato-Nbc@0.001")
	b.ReportMetric(last.Float("latency_cycles", "algorithm", "PHop"), "latency/PHop@0.001")
}

// BenchmarkFig3VCUsage regenerates Figure 3: per-virtual-channel
// utilization with 5% node failures.
func BenchmarkFig3VCUsage(b *testing.B) {
	o := benchOptions()
	var last *report.Table
	for i := 0; i < b.N; i++ {
		res, err := experiments.VCUsage(o, nil, 5)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(experiments.Imbalance(last.Floats("PHop")), "imbalance/PHop")
	b.ReportMetric(experiments.Imbalance(last.Floats("Duato")), "imbalance/Duato")
}

// BenchmarkFig4Throughput regenerates Figure 4: normalized throughput
// against the percentage of faulty nodes at saturating load.
func BenchmarkFig4Throughput(b *testing.B) {
	o := benchOptions()
	var last *report.Table
	for i := 0; i < b.N; i++ {
		res, err := experiments.FaultSweep(o, nil, []int{0, 5, 10})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Float("norm_throughput", "algorithm", "Duato-Nbc", "faults%", 10), "normThr/Duato-Nbc@10%")
	b.ReportMetric(last.Float("norm_throughput", "algorithm", "PHop", "faults%", 10), "normThr/PHop@10%")
}

// BenchmarkFig5Latency regenerates Figure 5: normalized message
// latency against the percentage of faulty nodes (same runs as Fig 4;
// benched separately so each figure has its own regeneration target).
func BenchmarkFig5Latency(b *testing.B) {
	o := benchOptions()
	var last *report.Table
	for i := 0; i < b.N; i++ {
		res, err := experiments.FaultSweep(o, nil, []int{0, 10})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Float("latency", "algorithm", "Duato-Nbc", "faults%", 10), "latency/Duato-Nbc@10%")
	b.ReportMetric(last.Float("latency", "algorithm", "PHop", "faults%", 10), "latency/PHop@10%")
}

// BenchmarkFig6RingLoad regenerates Figure 6: traffic load
// distribution around fault rings for the canned three-region pattern.
func BenchmarkFig6RingLoad(b *testing.B) {
	o := benchOptions()
	var last *report.Table
	for i := 0; i < b.N; i++ {
		res, err := experiments.RingLoad(o, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Float("other_share%", "algorithm", "PHop", "case", "faulty"), "otherShare%/PHop")
	b.ReportMetric(last.Float("other_share%", "algorithm", "Duato-Nbc", "case", "faulty"), "otherShare%/Duato-Nbc")
}

// BenchmarkEngineCyclesPerSecond measures raw simulation speed at a
// medium load: how many simulated cycles per wall second the engine
// sustains, the figure of merit for sweep turnaround.
func BenchmarkEngineCyclesPerSecond(b *testing.B) {
	p := wormmesh.DefaultParams()
	p.Algorithm = "Duato-Nbc"
	p.Rate = 0.003
	p.Faults = 5
	p.WarmupCycles = 0
	p.MeasureCycles = 2000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		if _, err := wormmesh.Run(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(p.MeasureCycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkSweepParallelism measures the batch harness: many short
// simulations across the worker pool.
func BenchmarkSweepParallelism(b *testing.B) {
	base := wormmesh.DefaultParams()
	base.Rate = 0.002
	base.WarmupCycles = 100
	base.MeasureCycles = 500
	var points []wormmesh.SweepPoint
	for _, alg := range wormmesh.Algorithms() {
		p := base
		p.Algorithm = alg
		points = append(points, wormmesh.SweepPoint{Key: alg, Params: p})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outcomes := wormmesh.RunBatch(points, 0)
		for _, o := range outcomes {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
		}
	}
}
