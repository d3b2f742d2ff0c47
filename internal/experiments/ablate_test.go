package experiments

import (
	"strings"
	"testing"
)

func TestAblateVCs(t *testing.T) {
	o := tiny()
	res, err := o.AblateVCs("Duato", []int{8, 16, 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("values = %v", res.Rows)
	}
	thr := res.Floats("throughput")
	for i := range thr {
		if thr[i] <= 0 {
			t.Errorf("VCs=%s: zero throughput", res.Rows[i][0])
		}
	}
	// More VCs must not collapse throughput (generous tolerance at
	// tiny cycle counts).
	if thr[2] < thr[0]*0.7 {
		t.Errorf("24 VCs (%.3f) much worse than 8 (%.3f)", thr[2], thr[0])
	}
	var sb strings.Builder
	if err := res.Write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestAblateVCsRespectsMinimum(t *testing.T) {
	o := tiny()
	// PHop needs 23 VCs on 10x10: the low counts must be skipped.
	res, err := o.AblateVCs("PHop", []int{8, 16, 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "24" {
		t.Fatalf("values = %v, want [24]", res.Rows)
	}
	if _, err := o.AblateVCs("PHop", []int{4}); err == nil {
		t.Error("all-below-minimum sweep accepted")
	}
	if _, err := o.AblateVCs("bogus", nil); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestAblateBufDepthAndSelection(t *testing.T) {
	o := tiny()
	buf, err := o.AblateBufDepth("NHop", []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if thr := buf.Floats("throughput"); len(thr) != 2 || thr[0] <= 0 || thr[1] <= 0 {
		t.Fatalf("buf ablation broken: %+v", buf.Rows)
	}
	sel, err := o.AblateSelection("Duato")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Rows) != 3 {
		t.Fatalf("selection values = %v", sel.Rows)
	}
	for i, thr := range sel.Floats("throughput") {
		if thr <= 0 {
			t.Errorf("policy %s: zero throughput", sel.Rows[i][0])
		}
	}
}

func TestAblateMessageLength(t *testing.T) {
	o := tiny()
	res, err := o.AblateMessageLength("Duato", []int{32, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("values = %v", res.Rows)
	}
	// Shorter messages at the same flit load have lower latency (less
	// serialization).
	if lat := res.Floats("latency"); lat[0] >= lat[1] {
		t.Errorf("32-flit latency %.0f not below 100-flit %.0f", lat[0], lat[1])
	}
}

func TestModelValidation(t *testing.T) {
	o := tiny()
	res, gain, err := o.ModelValidation([]float64{0.0005, 0.001})
	if err != nil {
		t.Fatal(err)
	}
	simulated, calibrated := res.Floats("simulated"), res.Floats("model_calibrated")
	if len(simulated) != 2 || len(calibrated) != 2 {
		t.Fatalf("lengths wrong: %+v", res.Rows)
	}
	if gain <= 0 {
		t.Errorf("gain = %v", gain)
	}
	// Calibration anchors the first point.
	if rel := (calibrated[0] - simulated[0]) / simulated[0]; rel > 0.02 || rel < -0.02 {
		t.Errorf("calibrated anchor off by %.1f%%", 100*rel)
	}
	var sb strings.Builder
	if err := res.Write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestSaturationPoints(t *testing.T) {
	o := tiny()
	res, err := o.SaturationPoints([]string{"NHop", "PHop"})
	if err != nil {
		t.Fatal(err)
	}
	rate, thr := res.Floats("saturation_rate"), res.Floats("saturation_throughput")
	for i, row := range res.Rows {
		alg := row[0]
		if thr[i] <= 0 || thr[i] > 0.4 {
			t.Errorf("%s: saturation throughput %v outside (0, 0.4]", alg, thr[i])
		}
		if rate[i] < 0.0005 {
			t.Errorf("%s: rate %v below search start", alg, rate[i])
		}
	}
	var sb strings.Builder
	if err := res.Write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestScaleStudy(t *testing.T) {
	o := tiny()
	res, err := Scale(o, []string{"Duato"}, []int{6, 8})
	if err != nil {
		t.Fatal(err)
	}
	lat := res.Floats("latency", "algorithm", "Duato")
	if len(lat) != 2 {
		t.Fatalf("latency series = %v", lat)
	}
	// Bigger mesh, longer paths: latency must grow.
	if lat[1] <= lat[0] {
		t.Errorf("latency did not grow with mesh size: %v", lat)
	}
	var sb strings.Builder
	if err := res.Write(&sb); err != nil {
		t.Fatal(err)
	}
}
