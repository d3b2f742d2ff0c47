package experiments

import (
	"strings"
	"testing"
)

func TestAdaptivityOrdersCategories(t *testing.T) {
	o := tiny()
	res, err := Adaptivity(o, []string{"PHop", "Nbc", "Duato", "Minimal-Adaptive"}, 5, 200)
	if err != nil {
		t.Fatal(err)
	}
	channels := func(alg string) float64 { return res.Float("mean_channels", "algorithm", alg) }
	// The paper's two categories in one number: free-choice pools
	// offer many channels per decision, the strict ladders few.
	if channels("PHop") >= channels("Nbc") {
		t.Errorf("PHop %.1f >= Nbc %.1f channels", channels("PHop"), channels("Nbc"))
	}
	if channels("Nbc") >= channels("Duato") {
		t.Errorf("Nbc %.1f >= Duato %.1f channels", channels("Nbc"), channels("Duato"))
	}
	if channels("Duato") >= channels("Minimal-Adaptive") {
		t.Errorf("Duato %.1f >= Minimal-Adaptive %.1f channels", channels("Duato"), channels("Minimal-Adaptive"))
	}
	// Direction freedom is bounded by 2 for minimal routing.
	for i, d := range res.Floats("mean_directions") {
		if d < 1 || d > 2.01 {
			t.Errorf("%s: %.2f directions per decision out of [1,2]", res.Rows[i][0], d)
		}
	}
	var sb strings.Builder
	if err := res.Write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptivityUnknownAlgorithm(t *testing.T) {
	o := tiny()
	if _, err := Adaptivity(o, []string{"bogus"}, 0, 10); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
