package metrics_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wormmesh/internal/core"
	"wormmesh/internal/metrics"
	"wormmesh/internal/sim"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := metrics.NewRegistry()
	c := r.NewCounter("test_ops_total", "operations")
	g := r.NewGauge("test_depth", "queue depth")
	f := r.NewFloatGauge("test_rate", "rate")

	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Add(-2)
	f.Set(0.125)

	if c.Get() != 5 {
		t.Errorf("counter = %d, want 5", c.Get())
	}
	if g.Get() != 5 {
		t.Errorf("gauge = %d, want 5", g.Get())
	}
	if f.Get() != 0.125 {
		t.Errorf("float gauge = %g, want 0.125", f.Get())
	}
	if got := r.Get("test_depth"); got == nil || got.Value() != 5 {
		t.Errorf("Get(test_depth) = %v", got)
	}
	if r.Get("nope") != nil {
		t.Error("Get of unknown metric should be nil")
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	r := metrics.NewRegistry()
	r.NewCounter("dup", "first")
	defer func() {
		if recover() == nil {
			t.Error("duplicate metric name did not panic")
		}
	}()
	r.NewGauge("dup", "second")
}

func TestWritePrometheusFormat(t *testing.T) {
	r := metrics.NewRegistry()
	r.NewCounter("zz_total", "last by name").Add(3)
	r.NewGauge("aa_depth", "first by name").Set(-1)
	r.NewFloatGauge("mm_ratio", "a float").Set(0.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP aa_depth first by name",
		"# TYPE aa_depth gauge",
		"aa_depth -1",
		"# TYPE mm_ratio gauge",
		"mm_ratio 0.5",
		"# TYPE zz_total counter",
		"zz_total 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Name-sorted output: aa before mm before zz.
	if !(strings.Index(out, "aa_depth") < strings.Index(out, "mm_ratio") &&
		strings.Index(out, "mm_ratio") < strings.Index(out, "zz_total")) {
		t.Errorf("metrics not sorted by name:\n%s", out)
	}
}

func TestServeHTTP(t *testing.T) {
	r := metrics.NewRegistry()
	r.NewCounter("served_total", "samples served").Add(9)
	r.PublishExpvar()
	srv, addr, err := metrics.Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	if !strings.Contains(string(body), "served_total 9") {
		t.Errorf("scrape missing served_total:\n%s", body)
	}

	resp, err = http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["served_total"]; !ok {
		t.Errorf("/debug/vars missing served_total: %v", vars)
	}
}

func TestSweepProgress(t *testing.T) {
	r := metrics.NewRegistry()
	s := metrics.NewSweep(r)
	s.Start(10)
	if s.Running.Get() != 1 || s.PointsTotal.Get() != 10 {
		t.Fatalf("Start: running=%d total=%d", s.Running.Get(), s.PointsTotal.Get())
	}
	s.Progress(4, 10)
	if s.PointsDone.Get() != 4 {
		t.Errorf("done = %d, want 4", s.PointsDone.Get())
	}
	if eta := s.EtaSeconds.Get(); eta < 0 {
		t.Errorf("ETA = %g, want >= 0", eta)
	}
	s.Finish()
	if s.Running.Get() != 0 {
		t.Error("Finish did not clear the running gauge")
	}
}

func TestManifestDigestAndWrite(t *testing.T) {
	d1, err := metrics.DigestJSON(map[string]int{"a": 1})
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := metrics.DigestJSON(map[string]int{"a": 1})
	d3, _ := metrics.DigestJSON(map[string]int{"a": 2})
	if d1 != d2 {
		t.Errorf("digest not deterministic: %s vs %s", d1, d2)
	}
	if d1 == d3 {
		t.Error("different payloads share a digest")
	}
	if !strings.HasPrefix(d1, "fnv1a:") {
		t.Errorf("digest %q missing algorithm prefix", d1)
	}

	m := metrics.NewManifest("test-tool", map[string]int{"width": 10})
	m.Seeds = []int64{1, 2, 3}
	if err := m.Finish(map[string]string{"table": "fnv1a:0000000000000000"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back metrics.Manifest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("manifest is not JSON: %v", err)
	}
	if back.Tool != "test-tool" || len(back.Seeds) != 3 || back.ResultDigest == "" {
		t.Errorf("round-tripped manifest = %+v", back)
	}
	if back.WallSeconds < 0 {
		t.Errorf("wall time = %g, want >= 0", back.WallSeconds)
	}
}

// TestSimMetricsSampling drives a short real simulation with a Sim
// following its window sampler and checks the counters reflect the run — and that
// installing the sampler does not change the run's statistics.
func TestSimMetricsSampling(t *testing.T) {
	base := sim.DefaultParams()
	base.Width, base.Height = 6, 6
	base.Rate = 0.01
	base.MessageLength = 8
	base.WarmupCycles = 200
	base.MeasureCycles = 800
	base.Seed = 7

	plain, err := sim.Run(base)
	if err != nil {
		t.Fatal(err)
	}

	r := metrics.NewRegistry()
	p := base
	p.Sampler = core.NewWindowSampler(0, 0)
	stop := metrics.NewSim(r).Follow(p.Sampler)
	observed, err := sim.Run(p)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Stats, observed.Stats) {
		t.Errorf("metrics sampling changed the run:\n  plain:    %+v\n  observed: %+v",
			plain.Stats, observed.Stats)
	}

	get := func(name string) float64 {
		m := r.Get(name)
		if m == nil {
			t.Fatalf("metric %s not registered", name)
		}
		return m.Value()
	}
	// The cumulative counters span both windows (warm-up and measured);
	// the measured-window Stats are a lower bound.
	if got := get("wormmesh_engine_delivered_total"); got < float64(observed.Stats.Delivered) || got == 0 {
		t.Errorf("delivered_total = %g, want >= %d", got, observed.Stats.Delivered)
	}
	if got := get("wormmesh_engine_generated_total"); got < float64(observed.Stats.Generated) {
		t.Errorf("generated_total = %g, want >= %d", got, observed.Stats.Generated)
	}
	if get("wormmesh_engine_runs_completed") != 1 {
		t.Error("runs_completed != 1 after one run")
	}
	if got, want := get("wormmesh_engine_cycle"), float64(base.WarmupCycles+base.MeasureCycles); got != want {
		t.Errorf("cycle gauge = %g, want %g (total cycles run)", got, want)
	}
}

// TestSimMetricsTelemetryAndKillSeries drives a saturated faulty run
// with link telemetry on and an aggressive stall watchdog, and checks
// the new series: per-cause kill counters partition the total, the
// interval latency percentile gauges land in order, and the hottest-
// link gauges publish a real link with a descending flit ranking.
func TestSimMetricsTelemetryAndKillSeries(t *testing.T) {
	p := sim.DefaultParams()
	p.Width, p.Height = 6, 6
	p.Rate = 0.2 // far past saturation: guarantees blocking
	p.MessageLength = 8
	p.WarmupCycles = 0
	p.MeasureCycles = 1500
	p.Seed = 9
	p.Faults = 4
	p.FaultSeed = 3
	p.Config = sim.DefaultEngineConfig()
	p.Config.ChannelTelemetry = true
	p.Config.MessageStallCycles = 64
	p.Config.StallScanInterval = 16

	r := metrics.NewRegistry()
	p.Sampler = core.NewWindowSampler(0, 0)
	stop := metrics.NewSim(r).Follow(p.Sampler)
	_, err := sim.Run(p)
	stop()
	if err != nil {
		t.Fatal(err)
	}

	get := func(name string) float64 {
		t.Helper()
		m := r.Get(name)
		if m == nil {
			t.Fatalf("metric %s not registered", name)
		}
		return m.Value()
	}

	total := get("wormmesh_engine_killed_total")
	byCause := get("wormmesh_engine_killed_global_total") +
		get("wormmesh_engine_killed_stall_total") +
		get("wormmesh_engine_killed_livelock_total")
	if total != byCause {
		t.Errorf("killed_total %g != sum of per-cause counters %g", total, byCause)
	}
	if get("wormmesh_engine_killed_stall_total") == 0 {
		t.Error("aggressive stall watchdog on a saturated faulty mesh killed nothing")
	}

	p50 := get("wormmesh_engine_latency_p50_cycles")
	p95 := get("wormmesh_engine_latency_p95_cycles")
	p99 := get("wormmesh_engine_latency_p99_cycles")
	if p50 <= 0 {
		t.Errorf("p50 gauge %g: no deliveries in the final sampling interval of a saturated run", p50)
	}
	if p50 > p95 || p95 > p99 {
		t.Errorf("percentile gauges out of order: p50=%g p95=%g p99=%g", p50, p95, p99)
	}

	id0 := get("wormmesh_engine_hot_link_0_id")
	if id0 < 0 || id0 >= float64(4*p.Width*p.Height) {
		t.Errorf("hot_link_0_id %g outside the mesh's link id range", id0)
	}
	f0 := get("wormmesh_engine_hot_link_0_flits")
	f1 := get("wormmesh_engine_hot_link_1_flits")
	f2 := get("wormmesh_engine_hot_link_2_flits")
	if f0 == 0 {
		t.Error("hottest link recorded no interval flits on a saturated run")
	}
	if f0 < f1 || f1 < f2 {
		t.Errorf("hot-link flits not descending: %g %g %g", f0, f1, f2)
	}

	// Telemetry off: the hot-link series stay at their defaults.
	r2 := metrics.NewRegistry()
	p2 := p
	p2.Config.ChannelTelemetry = false
	p2.Sampler = core.NewWindowSampler(0, 0)
	stop = metrics.NewSim(r2).Follow(p2.Sampler)
	_, err = sim.Run(p2)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	if v := r2.Get("wormmesh_engine_hot_link_0_flits").Value(); v != 0 {
		t.Errorf("telemetry off but hot_link_0_flits = %g", v)
	}
}
