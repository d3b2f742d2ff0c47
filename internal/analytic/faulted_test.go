package analytic

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"wormmesh/internal/fault"
	"wormmesh/internal/sim"
	"wormmesh/internal/topology"
)

// fig6Block reproduces the experiments package's Figure 6 fault
// pattern on a 10×10 mesh: a 2×3 block plus two unit regions with
// overlapping f-rings.
func fig6Block(t testing.TB, m topology.Topology) *fault.Model {
	t.Helper()
	var ids []topology.NodeID
	for y := 3; y <= 5; y++ {
		for x := 2; x <= 3; x++ {
			ids = append(ids, m.ID(topology.Coord{X: x, Y: y}))
		}
	}
	ids = append(ids, m.ID(topology.Coord{X: 5, Y: 4}), m.ID(topology.Coord{X: 7, Y: 4}))
	f, err := fault.New(m, ids)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestWithFaultsGating(t *testing.T) {
	mo := Default()
	f := fig6Block(t, mo.Topo)

	tor, err := topology.Make("torus", 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	tm := mo
	tm.Topo = tor
	if _, err := tm.WithFaults(fault.None(tor)); !errors.Is(err, ErrUnsupported) {
		t.Errorf("torus: err = %v, want ErrUnsupported", err)
	}
	if _, err := tm.Predict(0.001); !errors.Is(err, ErrUnsupported) {
		t.Errorf("torus Predict: err = %v, want ErrUnsupported", err)
	}

	// Fault-free: the cut path is exact, so the model is unchanged.
	ff, err := mo.WithFaults(fault.None(mo.Topo))
	if err != nil {
		t.Fatal(err)
	}
	if ff.Faulted() {
		t.Error("fault-free WithFaults produced a faulted model")
	}

	fm, err := mo.WithFaults(f)
	if err != nil {
		t.Fatal(err)
	}
	if !fm.Faulted() {
		t.Error("faulted WithFaults not marked faulted")
	}
}

// Faults must hurt: at the same rate the faulted model predicts higher
// latency than the fault-free one, and it saturates earlier.
func TestFaultedPredictShape(t *testing.T) {
	mo := Default()
	f := fig6Block(t, mo.Topo)
	fm, err := mo.WithFaults(f)
	if err != nil {
		t.Fatal(err)
	}
	rate := 0.001
	pf, err := fm.Predict(rate)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := mo.Predict(rate)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Latency <= p0.Latency {
		t.Errorf("faulted latency %.1f not above fault-free %.1f", pf.Latency, p0.Latency)
	}
	if pf.MeanDistance <= p0.MeanDistance-1 {
		t.Errorf("faulted mean path %.2f collapsed below fault-free %.2f", pf.MeanDistance, p0.MeanDistance)
	}
	if sf, s0 := fm.SaturationRate(), mo.SaturationRate(); sf >= s0 {
		t.Errorf("faulted saturation %.5f not below fault-free %.5f", sf, s0)
	}
	// Monotone in load across the stable region.
	sat := fm.SaturationRate()
	prev := 0.0
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		r := sat * frac
		p, err := fm.Predict(r)
		if err != nil {
			t.Fatalf("rate %v (%.0f%% of saturation): %v", r, 100*frac, err)
		}
		if p.Latency <= prev {
			t.Errorf("faulted latency not increasing at %v", r)
		}
		prev = p.Latency
	}
}

// Calibration must keep its contract on the faulted path: γ fitted at
// one rate reproduces the measurement there.
func TestFaultedCalibrate(t *testing.T) {
	mo := Default()
	fm, err := mo.WithFaults(fig6Block(t, mo.Topo))
	if err != nil {
		t.Fatal(err)
	}
	rate := 0.001
	base, err := fm.Predict(rate)
	if err != nil {
		t.Fatal(err)
	}
	target := base.Latency * 1.4
	cal, err := fm.Calibrate(rate, target)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cal.Predict(rate)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Latency-target) > 1 {
		t.Errorf("calibrated latency %.2f, want %.2f", got.Latency, target)
	}
	if !cal.Faulted() {
		t.Error("calibration dropped the faulted tables")
	}
}

// TestFaultedModelAgainstSimulator is the tentpole's validation: for
// the fig6 block pattern and 2/5/10 random-fault scenarios, calibrate
// γ at one stable rate and require the faulted model to track the
// simulator within 15% at the other stable rates.
func TestFaultedModelAgainstSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed validation")
	}
	mo := Default()
	m := mo.Topo

	scenarios := []struct {
		name   string
		faults *fault.Model
	}{
		{"fig6-block", fig6Block(t, m)},
		{"2-random", genFaults(t, m, 2, 11)},
		{"5-random", genFaults(t, m, 5, 12)},
		{"10-random", genFaults(t, m, 10, 13)},
	}
	for _, sc := range scenarios {
		fm, err := mo.WithFaults(sc.faults)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		// Stable-region rates relative to each scenario's own knee,
		// with γ calibrated at the middle one. Measurements average two
		// seeds over a paper-scale window: single short runs near the
		// knee carry enough transient noise to swamp a 15% band.
		sat := fm.SaturationRate()
		rates := []float64{0.35 * sat, 0.55 * sat, 0.75 * sat}
		anchor := rates[1]
		measure := func(rate float64) float64 {
			total := 0.0
			for seed := int64(1); seed <= 2; seed++ {
				p := sim.DefaultParams()
				p.Algorithm = "Minimal-Adaptive"
				p.Rate = rate
				p.WarmupCycles = 5000
				p.MeasureCycles = 20000
				p.Seed = seed
				p.FaultNodes = faultIDs(sc.faults)
				res, err := sim.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				total += res.Stats.AvgLatency()
			}
			return total / 2
		}
		cal, err := fm.Calibrate(anchor, measure(anchor))
		if err != nil {
			t.Fatalf("%s: calibrate: %v", sc.name, err)
		}
		for _, rate := range rates {
			if rate == anchor {
				continue
			}
			pred, err := cal.Predict(rate)
			if err != nil {
				t.Fatalf("%s rate %v: %v", sc.name, rate, err)
			}
			measured := measure(rate)
			if rel := math.Abs(pred.Latency-measured) / measured; rel > 0.15 {
				t.Errorf("%s rate %v: model %.0f vs simulator %.0f (%.0f%% off, γ %.2f)",
					sc.name, rate, pred.Latency, measured, 100*rel, cal.ContentionGain)
			}
		}
	}
}

func genFaults(t *testing.T, m topology.Topology, n int, seed int64) *fault.Model {
	t.Helper()
	f, err := fault.Generate(m, n, rand.New(rand.NewSource(seed)), fault.Options{ForbidBoundary: true})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func faultIDs(f *fault.Model) []topology.NodeID {
	var ids []topology.NodeID
	for id := topology.NodeID(0); int(id) < f.Topo.NodeCount(); id++ {
		if f.IsFaulty(id) {
			ids = append(ids, id)
		}
	}
	return ids
}
