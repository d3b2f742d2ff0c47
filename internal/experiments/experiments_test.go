package experiments

import (
	"strings"
	"testing"

	"wormmesh/internal/fault"
	"wormmesh/internal/serve"
	"wormmesh/internal/topology"
)

// tiny returns very small options so the experiment plumbing can be
// tested quickly; shapes are checked by the larger shape tests.
func tiny() Options {
	o := Quick()
	o.WarmupCycles = 200
	o.MeasureCycles = 800
	o.FaultSets = 2
	return o
}

func TestOptionsScales(t *testing.T) {
	p := Paper()
	if p.WarmupCycles != 10000 || p.MeasureCycles != 20000 || p.Width != 10 || p.NumVCs != 24 {
		t.Errorf("Paper options wrong: %+v", p)
	}
	q := Quick()
	if q.MeasureCycles >= p.MeasureCycles {
		t.Error("Quick not quicker than Paper")
	}
	if r := p.SaturatingRate(); r != 0.01 {
		t.Errorf("saturating rate = %v, want 0.01 for 100-flit messages", r)
	}
}

func TestFig6FaultNodesFormExpectedRegions(t *testing.T) {
	o := Paper()
	mesh := topology.New(o.Width, o.Height)
	f, err := fault.New(mesh, o.Fig6FaultNodes())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Regions()) != 3 {
		t.Fatalf("regions = %d, want 3", len(f.Regions()))
	}
	sizes := map[int]int{}
	for _, r := range f.Regions() {
		sizes[r.Size()]++
	}
	if sizes[6] != 1 || sizes[1] != 2 {
		t.Errorf("region sizes = %v, want one 2x3 and two 1x1", sizes)
	}
	// The paper's pattern has overlapping rings: at least one node on
	// two rings.
	overlap := false
	for id := topology.NodeID(0); int(id) < mesh.NodeCount(); id++ {
		if len(f.RingsThrough(id)) >= 2 {
			overlap = true
			break
		}
	}
	if !overlap {
		t.Error("canned pattern has no overlapping rings")
	}
}

func TestTrafficSweepPlumbing(t *testing.T) {
	o := tiny()
	algs := []string{"Duato", "NHop"}
	rates := []float64{0.001, 0.004}
	res, err := TrafficSweep(o, algs, rates)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range algs {
		norm := res.Floats("normalized_thr", "algorithm", alg)
		if len(norm) != 2 || len(res.Floats("latency_cycles", "algorithm", alg)) != 2 {
			t.Fatalf("%s: series lengths wrong", alg)
		}
		if norm[1] <= 0 {
			t.Errorf("%s: zero throughput at high rate", alg)
		}
		if maxOf(norm) <= 0 {
			t.Errorf("%s: no peak", alg)
		}
		// Saturation: the lowest rate whose accepted throughput reaches
		// 95% of the peak.
		acc := res.Floats("accepted_flits", "algorithm", alg)
		sat := rates[len(rates)-1]
		for i, v := range acc {
			if v >= 0.95*maxOf(acc) {
				sat = rates[i]
				break
			}
		}
		if sat != rates[0] && sat != rates[1] {
			t.Errorf("%s: saturation rate %v not in sweep", alg, sat)
		}
	}
	// Charts and table render and mention the series.
	var sb strings.Builder
	if err := res.LineChart("Figure 1", "rate", "algorithm", "rate", "normalized_thr").Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Duato") {
		t.Error("throughput chart missing series name")
	}
	sb.Reset()
	if err := res.LineChart("Figure 2", "rate", "algorithm", "rate", "latency_cycles").Write(&sb); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Errorf("table rows = %d, want 4", len(res.Rows))
	}
}

func maxOf(v []float64) float64 {
	best := 0.0
	for _, x := range v {
		if x > best {
			best = x
		}
	}
	return best
}

func TestVCUsagePlumbing(t *testing.T) {
	o := tiny()
	res, err := VCUsage(o, []string{"NHop", "Duato"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	u := res.Floats("NHop")
	if len(u) != 24 {
		t.Fatalf("VC vector = %d, want 24", len(u))
	}
	sum := 0.0
	used := 0
	for _, v := range u {
		if v < 0 || v > 1 {
			t.Fatalf("utilization %v outside [0,1]", v)
		}
		sum += v
		if v > 1e-4 {
			used++
		}
	}
	if sum == 0 {
		t.Fatal("no VC utilization measured")
	}
	if used == 0 {
		t.Error("UsedVCs = 0")
	}
	if Imbalance(u) < 1 {
		t.Errorf("imbalance = %v, must be >= 1", Imbalance(u))
	}
	if len(res.Rows) != 24 {
		t.Errorf("table rows = %d", len(res.Rows))
	}
}

func TestFaultSweepPlumbing(t *testing.T) {
	o := tiny()
	res, err := FaultSweep(o, []string{"Nbc", "PHop"}, []int{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"Nbc", "PHop"} {
		thr := res.Floats("norm_throughput", "algorithm", alg)
		if len(thr) != 2 {
			t.Fatalf("%s: series length %d", alg, len(thr))
		}
		if thr[0] <= 0 {
			t.Errorf("%s: zero fault-free throughput", alg)
		}
		// Throughput must not improve with faults (generous margin for
		// the tiny cycle count).
		if thr[1] > thr[0]*1.3 {
			t.Errorf("%s: throughput grew with faults: %v", alg, thr)
		}
	}
	var sb strings.Builder
	if err := res.LineChart("Figure 4", "% faulty nodes", "algorithm", "faults%", "norm_throughput").Write(&sb); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := res.LineChart("Figure 5", "% faulty nodes", "algorithm", "faults%", "latency").Write(&sb); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Errorf("table rows = %d", len(res.Rows))
	}
}

func TestRingLoadPlumbing(t *testing.T) {
	o := tiny()
	res, err := RingLoad(o, []string{"Duato-Nbc", "PHop"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fault.New(topology.New(o.Width, o.Height), o.Fig6FaultNodes())
	if err != nil {
		t.Fatal(err)
	}
	ringNodes := 0
	for id := topology.NodeID(0); int(id) < f.Topo.NodeCount(); id++ {
		if !f.IsFaulty(id) && f.OnAnyRing(id) {
			ringNodes++
		}
	}
	if ringNodes == 0 {
		t.Fatal("no ring nodes identified")
	}
	for _, alg := range []string{"Duato-Nbc", "PHop"} {
		share := func(col, c string) float64 { return res.Float(col, "algorithm", alg, "case", c) / 100 }
		for _, d := range []struct {
			name string
			v    float64
		}{
			{"faulty ring", share("ring_share%", "faulty")},
			{"faulty other", share("other_share%", "faulty")},
			{"free ring", share("ring_share%", "0%")},
			{"free other", share("other_share%", "0%")},
		} {
			if d.v < 0 || d.v > 1 {
				t.Errorf("%s %s share = %v outside [0,1]", alg, d.name, d.v)
			}
		}
		if res.Float("peak_load", "algorithm", alg, "case", "faulty") <= 0 {
			t.Errorf("%s: no peak load", alg)
		}
	}
	if len(res.Rows) != 4 {
		t.Errorf("table rows = %d", len(res.Rows))
	}
}

// TestRingLoadFromCache reruns Figure 6 over a warm result cache: the
// cached results carry no fault model, which the study must rebuild
// rather than dereference, and the table must come out unchanged.
func TestRingLoadFromCache(t *testing.T) {
	o := tiny()
	cache := serve.NewSweepCache(serve.NewCache(0, nil, nil))
	o.Cache = cache
	cold, err := RingLoad(o, []string{"Duato"})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RingLoad(o, []string{"Duato"})
	if err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := cache.Stats(); hits != 2 {
		t.Fatalf("cache hits = %d, want 2", hits)
	}
	var a, b strings.Builder
	if err := cold.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := warm.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("cached rerun differs:\n%s\nvs\n%s", b.String(), a.String())
	}
}

func TestDefaultRatesSpanPaperAxis(t *testing.T) {
	rates := DefaultRates()
	if rates[0] != 0.0001 {
		t.Errorf("first rate %v", rates[0])
	}
	if rates[len(rates)-1] != 0.0351 {
		t.Errorf("last rate %v", rates[len(rates)-1])
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] <= rates[i-1] {
			t.Error("rates not increasing")
		}
	}
}
