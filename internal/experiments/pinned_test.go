package experiments

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"wormmesh/internal/report"
)

// TestStudyTablesPinned digests the CSV bytes of all seventeen tables
// cmd/experiments writes, at tiny() scale on a three-algorithm roster
// (one of them mesh-only, so the topology study's filter is exercised).
// The digests were recorded while every study still returned its own
// result struct and re-derived its table from it; any rework of how the
// studies build their tables must reproduce them bit for bit.
func TestStudyTablesPinned(t *testing.T) {
	want := map[string]string{
		"ablate_bufdepth":          "b9c85e2b5f4c6c06",
		"ablate_msglength":         "b51bc8e607cec0f3",
		"ablate_selection":         "0e6fb6196c5958df",
		"ablate_vcs":               "17b79cdc118775c9",
		"adaptivity":               "f250d86e36114aea",
		"fig1_fig2_hybrid_sweep":   "0f246013ec1f55c3",
		"fig1_fig2_traffic_sweep":  "ac8df1af53dc566a",
		"fig3_vc_usage":            "0d002b795cf8aa72",
		"fig4_fig5_fault_sweep":    "5c74d34b33c9cfc6",
		"fig6_ring_load":           "3944eae21a28b649",
		"hotspot":                  "b2d9f2946ce7242c",
		"model_validation":         "be415a9636bcb6e3",
		"model_validation_faulted": "e11a4964bd298d7e",
		"saturation_points":        "c792e8cde1508cc3",
		"scale":                    "2f16c39e28520db1",
		"topology":                 "aec5d32f92821d43",
		"warmup":                   "169a7a916699fabd",
	}
	got := map[string]string{}
	for name, tab := range pinnedTables(t, tiny(), []string{"Duato-Nbc", "NHop", "Minimal-Adaptive"}) {
		h := fnv.New64a()
		if err := tab.WriteCSV(h); err != nil {
			t.Fatal(err)
		}
		got[name] = fmt.Sprintf("%016x", h.Sum64())
	}
	var names []string
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(got) != 17 {
		t.Errorf("%d tables, want 17: %v", len(got), names)
	}
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got[name], want[name])
		}
	}
}

// pinnedTables runs every study the way cmd/experiments does for
// `-algs` set to algs, keyed by the CSV name each table is saved under.
func pinnedTables(t *testing.T, o Options, algs []string) map[string]*report.Table {
	t.Helper()
	out := map[string]*report.Table{}
	check := func(name string, tab *report.Table, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = tab
	}
	traffic, err := TrafficSweep(o, algs, nil)
	check("fig1_fig2_traffic_sweep", traffic, err)
	hybrid, _, err := HybridTrafficSweep(o, algs, nil, 0, 0)
	check("fig1_fig2_hybrid_sweep", hybrid, err)
	vc, err := VCUsage(o, algs, 5)
	check("fig3_vc_usage", vc, err)
	faults, err := FaultSweep(o, algs, nil)
	check("fig4_fig5_fault_sweep", faults, err)
	ring, err := RingLoad(o, algs)
	check("fig6_ring_load", ring, err)
	vcs, err := o.AblateVCs(algs[0], nil)
	check("ablate_vcs", vcs, err)
	buf, err := o.AblateBufDepth(algs[0], nil)
	check("ablate_bufdepth", buf, err)
	sel, err := o.AblateSelection(algs[0])
	check("ablate_selection", sel, err)
	msg, err := o.AblateMessageLength(algs[0], nil)
	check("ablate_msglength", msg, err)
	model, _, err := o.ModelValidation(nil)
	check("model_validation", model, err)
	faulted, err := o.FaultedModelValidation()
	check("model_validation_faulted", faulted, err)
	adapt, err := Adaptivity(o, algs, 5, 400)
	check("adaptivity", adapt, err)
	scale, err := Scale(o, algs, nil)
	check("scale", scale, err)
	hot, _, err := Hotspot(o, algs, nil)
	check("hotspot", hot, err)
	warm, err := Warmup(o, algs[0], 5, nil)
	check("warmup", warm, err)
	topo, err := TopologyCompare(o, algs)
	check("topology", topo, err)
	sat, err := o.SaturationPoints(algs)
	check("saturation_points", sat, err)
	return out
}
