package experiments

import (
	"strings"
	"testing"
)

// TestWarmupStudy runs the warm-up sensitivity study at CI scale and
// checks its structural contract: a full policy ladder per load, zero
// bias at the reference by construction, fixed variants discarding
// exactly their budget, and the MSER variant never exceeding its.
func TestWarmupStudy(t *testing.T) {
	o := Quick()
	o.FaultSets = 1
	res, err := Warmup(o, "Duato", 0, []float64{0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	perRate := len(DefaultWarmupFractions) + 1
	if len(res.Rows) != 2*perRate {
		t.Fatalf("rows = %d, want %d", len(res.Rows), 2*perRate)
	}
	for _, row := range res.Rows {
		rate, variant := row[0], row[1].(string)
		budget, effective := row[2].(int64), row[3].(int64)
		latency, bias := row[4].(float64), row[5].(float64)
		if latency <= 0 {
			t.Errorf("%s@%g: latency %g not positive", variant, rate, latency)
		}
		switch {
		case variant == "mser":
			if effective > budget {
				t.Errorf("mser@%g: effective warm-up %d exceeds budget %d", rate, effective, budget)
			}
		case strings.HasPrefix(variant, "fixed-"):
			if effective != budget {
				t.Errorf("%s@%g: effective %d != budget %d", variant, rate, effective, budget)
			}
		default:
			t.Errorf("unknown variant %q", variant)
		}
		if variant == "fixed-1" && bias != 0 {
			t.Errorf("reference variant bias = %g%%, want 0", bias)
		}
	}
}
