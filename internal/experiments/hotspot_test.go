package experiments

import (
	"strings"
	"testing"
)

// TestHotspotRingLocalization is the acceptance check for the hotspot
// study: on the Figure 6 canned pattern at the knee load, at least one
// BC-fortified algorithm blocks disproportionately on its f-ring links
// (on-ring mean blocked cycles > off-ring mean), while the structural
// outputs (row grid, link splits, views, table) are complete.
func TestHotspotRingLocalization(t *testing.T) {
	o := tiny()
	// The ring-localization signal needs the knee regime to settle;
	// tiny()'s 800 cycles are too noisy for a ratio assertion.
	o.WarmupCycles = 1000
	o.MeasureCycles = 4000
	algs := []string{"Duato-Nbc", "Nbc"}
	res, views, err := Hotspot(o, algs, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(algs) * 2 /* cases: fig6, 5 */ * 2 /* loads */
	if len(res.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(res.Rows), wantRows)
	}
	onLinks, offLinks := res.Floats("ring_links"), res.Floats("other_links")
	p50, p99 := res.Floats("p50"), res.Floats("p99")
	blockedShare := res.Floats("blocked_share%")
	for i, row := range res.Rows {
		if onLinks[i] == 0 || offLinks[i] == 0 {
			t.Errorf("%s@%s/%s: degenerate link split %v/%v",
				row[0], row[1], row[2], onLinks[i], offLinks[i])
		}
		if p50[i] > p99[i] {
			t.Errorf("%s@%s/%s: p50 %v > p99 %v", row[0], row[1], row[2], p50[i], p99[i])
		}
		if share := blockedShare[i] / 100; share < 0 || share > 1 {
			t.Errorf("%s@%s/%s: blocked share %v outside [0,1]",
				row[0], row[1], row[2], share)
		}
	}

	// The headline claim: congestion localizes on the rings at the knee
	// for at least one BC-fortified algorithm.
	localized := false
	for _, alg := range algs {
		ratio := res.Floats("blocked_ratio", "algorithm", alg, "case", "fig6", "load", "knee")
		if len(ratio) == 0 {
			t.Fatalf("missing fig6/knee row for %s", alg)
		}
		if r := ratio[0]; r > 1 {
			localized = true
			t.Logf("%s: fig6@knee blocked ratio %.2f", alg, r)
		}
	}
	if !localized {
		t.Error("no BC-fortified algorithm showed on-ring blocked mean > off-ring at the knee")
	}

	// Each algorithm's fig6 knee view renders and marks the fault block.
	if len(views) != len(algs) {
		t.Fatalf("%d fig6 knee views, want one per algorithm", len(views))
	}
	for i, lv := range views {
		var sb strings.Builder
		if err := lv.Write(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "X") {
			t.Errorf("%s view does not mark faulty nodes", algs[i])
		}
	}

	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "blocked_ratio") {
		t.Error("hotspot CSV missing blocked_ratio column")
	}
}
