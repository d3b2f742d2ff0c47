package wormmesh_test

import (
	"testing"

	"wormmesh"
	"wormmesh/internal/experiments"
	"wormmesh/internal/report"
)

// The shape tests check the paper's qualitative findings at a reduced
// but statistically meaningful scale. They are the executable version
// of EXPERIMENTS.md's "expected shapes" column and are skipped under
// -short.

func shapeOptions() experiments.Options {
	o := experiments.Quick()
	o.WarmupCycles = 2000
	o.MeasureCycles = 6000
	o.FaultSets = 4
	return o
}

// peakThroughput is an algorithm's best normalized throughput across a
// TrafficSweep table.
func peakThroughput(res *report.Table, alg string) float64 {
	best := 0.0
	for _, v := range res.Floats("normalized_thr", "algorithm", alg) {
		if v > best {
			best = v
		}
	}
	return best
}

// TestShapeRestrictedVCChoiceHurts reproduces Figure 1's core finding:
// algorithms with free choice among many virtual channels saturate at
// or above the strictly supervised hop-based schemes, with PHop (one
// fixed class per hop) at the bottom.
func TestShapeRestrictedVCChoiceHurts(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	o := shapeOptions()
	res, err := experiments.TrafficSweep(o, []string{"PHop", "NHop", "Duato-Nbc", "Minimal-Adaptive"},
		[]float64{0.002, 0.004, 0.008})
	if err != nil {
		t.Fatal(err)
	}
	phop := peakThroughput(res, "PHop")
	for _, better := range []string{"NHop", "Duato-Nbc", "Minimal-Adaptive"} {
		if peak := peakThroughput(res, better); peak < phop*0.98 {
			t.Errorf("%s peak %.3f below PHop %.3f — paper expects PHop at the bottom", better, peak, phop)
		}
	}
}

// TestShapeThroughputDegradesWithFaults reproduces Figure 4's frame:
// normalized throughput at saturating load drops as faults rise, for
// every algorithm.
func TestShapeThroughputDegradesWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	o := shapeOptions()
	algs := []string{"PHop", "Nbc", "Duato-Nbc", "Boura-FT"}
	res, err := experiments.FaultSweep(o, algs, []int{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range algs {
		thr := res.Floats("norm_throughput", "algorithm", alg)
		if thr[1] >= thr[0] {
			t.Errorf("%s: throughput rose with 10%% faults: %.3f -> %.3f", alg, thr[0], thr[1])
		}
		lat := res.Floats("latency", "algorithm", alg)
		if lat[1] <= lat[0]*0.9 {
			t.Errorf("%s: latency improved with faults: %.0f -> %.0f", alg, lat[0], lat[1])
		}
	}
}

// TestShapeDuatoNbcBeatsPHopUnderFaults reproduces the paper's main
// conclusion: the Duato-based modified schemes outperform the rigid
// hop-based schemes under faults.
func TestShapeDuatoNbcBeatsPHopUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	o := shapeOptions()
	res, err := experiments.FaultSweep(o, []string{"PHop", "Duato-Nbc", "Duato-Pbc"}, []int{10})
	if err != nil {
		t.Fatal(err)
	}
	thr := func(alg string) float64 { return res.Float("norm_throughput", "algorithm", alg) }
	phop := thr("PHop")
	if thr("Duato-Nbc") <= phop {
		t.Errorf("Duato-Nbc %.3f not above PHop %.3f at 10%% faults",
			thr("Duato-Nbc"), phop)
	}
	if thr("Duato-Pbc") <= phop {
		t.Errorf("Duato-Pbc %.3f not above PHop %.3f at 10%% faults",
			thr("Duato-Pbc"), phop)
	}
}

// TestShapeVCUsagePatterns reproduces Figure 3's reading: PHop leaves
// most of its class ladder cold (low classes saturated, high classes
// idle), while Duato's adaptive class spreads usage evenly — so PHop's
// imbalance ratio must exceed Duato's, and NHop must touch fewer
// distinct channels than Minimal-Adaptive's free pool.
func TestShapeVCUsagePatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	o := shapeOptions()
	res, err := experiments.VCUsage(o, []string{"PHop", "Duato", "Minimal-Adaptive"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pi, di := experiments.Imbalance(res.Floats("PHop")), experiments.Imbalance(res.Floats("Duato")); pi <= di {
		t.Errorf("PHop imbalance %.2f not above Duato %.2f", pi, di)
	}
	// PHop's first class channel must be its hottest: every message
	// starts at class 0.
	phop := res.Floats("PHop")
	hottest := 0
	for v := range phop {
		if phop[v] > phop[hottest] {
			hottest = v
		}
	}
	if hottest > 2 {
		t.Errorf("PHop hottest VC = %d, expected among the first classes", hottest)
	}
}

// TestShapeRingHotspotsUnderFaults reproduces Figure 6: in the
// fault-free network the load is spread (ring-node group close to the
// other group); with the fault pattern the distribution skews, and
// PHop — the least flexible scheme — skews at least as much as the
// card-based schemes.
func TestShapeRingHotspotsUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	o := shapeOptions()
	res, err := experiments.RingLoad(o, []string{"PHop", "Pbc", "Duato-Nbc"})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"PHop", "Pbc", "Duato-Nbc"} {
		// The table holds shares in percent.
		share := func(col, c string) float64 { return res.Float(col, "algorithm", alg, "case", c) / 100 }
		freeRing, freeOther := share("ring_share%", "0%"), share("other_share%", "0%")
		faultyOther := share("other_share%", "faulty")
		// Fault-free: the two groups are within 35 points of each
		// other (the paper shows them nearly equal).
		if diff := freeRing - freeOther; diff > 0.35 || diff < -0.35 {
			t.Errorf("%s fault-free groups differ by %.2f", alg, diff)
		}
		// Under faults the overall distribution flattens less: the
		// mean/peak shares drop (peak grows faster than the mean).
		if faultyOther >= freeOther*1.15 {
			t.Errorf("%s: faults flattened the load (%.2f -> %.2f)", alg, freeOther, faultyOther)
		}
	}
}

// TestShapeBonusCardsNeverHurtMuch: Pbc/Nbc should perform at least
// about as well as PHop/NHop fault-free (the cards only widen choice).
func TestShapeBonusCardsNeverHurtMuch(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	o := shapeOptions()
	res, err := experiments.TrafficSweep(o, []string{"PHop", "Pbc", "NHop", "Nbc"}, []float64{0.003, 0.006})
	if err != nil {
		t.Fatal(err)
	}
	if pbc, phop := peakThroughput(res, "Pbc"), peakThroughput(res, "PHop"); pbc < phop*0.9 {
		t.Errorf("Pbc peak %.3f well below PHop %.3f", pbc, phop)
	}
	if nbc, nhop := peakThroughput(res, "Nbc"), peakThroughput(res, "NHop"); nbc < nhop*0.9 {
		t.Errorf("Nbc peak %.3f well below NHop %.3f", nbc, nhop)
	}
}

// TestShapeSaturationOrderingFaultFree: the saturation points line up
// with hardware flexibility — quick smoke-level check that latency at
// a mid load stays finite and ordered sensibly.
func TestShapeLatencyFiniteBelowSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	p := wormmesh.DefaultParams()
	p.Rate = 0.001 // well below saturation
	p.WarmupCycles = 2000
	p.MeasureCycles = 6000
	for _, alg := range wormmesh.Algorithms() {
		p.Algorithm = alg
		res, err := wormmesh.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		lat := res.Stats.AvgLatency()
		// Serialization bound is ~105 cycles (100 flits + ~6 hops); far
		// below saturation the average must stay in the low hundreds.
		if lat < 100 || lat > 400 {
			t.Errorf("%s: latency %.0f outside sane sub-saturation range", alg, lat)
		}
		if res.Stats.Killed > 0 {
			t.Errorf("%s: %d kills below saturation on a fault-free mesh", alg, res.Stats.Killed)
		}
	}
}
