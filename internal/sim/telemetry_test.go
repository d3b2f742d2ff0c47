package sim

import (
	"strings"
	"testing"

	"wormmesh/internal/topology"
)

// TestTelemetryNeutralGolden locks in the per-link telemetry contract:
// counter recording is read-only and RNG-free, so the golden scenario's
// Stats are bit-identical with ChannelTelemetry on or off.
func TestTelemetryNeutralGolden(t *testing.T) {
	base := goldenRun(t)
	p := goldenParams()
	p.Config = DefaultEngineConfig()
	p.Config.ChannelTelemetry = true
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !statsEqual(base, res.Stats) {
		t.Errorf("link telemetry changed the run:\n  off: %+v\n  on:  %+v", base, res.Stats)
	}
	if res.Links == nil {
		t.Fatal("telemetry on but Result.Links is nil")
	}
	var flits int64
	for _, f := range res.Links.Flits {
		flits += f
	}
	if flits == 0 {
		t.Error("telemetry on but no link flits recorded")
	}
}

// TestTelemetryNeutralRunnerReuse checks the reuse path: one Runner
// alternating telemetry off/on/off over the golden scenario stays
// bit-identical with the one-shot baseline throughout. Toggling
// ChannelTelemetry changes Cfg, so the Runner rebuilds the network —
// the rebuild must be observably transparent too.
func TestTelemetryNeutralRunnerReuse(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	base := goldenRun(t)
	for i, telemetry := range []bool{false, true, false, true} {
		p := goldenParams()
		p.Config = DefaultEngineConfig()
		p.Config.ChannelTelemetry = telemetry
		res, err := r.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if !statsEqual(base, res.Stats) {
			t.Errorf("runner pass %d (telemetry=%v) diverged from one-shot golden Stats", i, telemetry)
		}
		if telemetry && res.Links == nil {
			t.Errorf("runner pass %d: telemetry on but Result.Links is nil", i)
		}
		if !telemetry && res.Links != nil {
			t.Errorf("runner pass %d: telemetry off but Result.Links is set", i)
		}
	}
}

// TestLatencyHistogramWindowReset checks the histogram obeys the
// measurement window: a run with warm-up discards warm-up deliveries,
// and the histogram total equals LatencyCount exactly.
func TestLatencyHistogramWindowReset(t *testing.T) {
	p := goldenParams()
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.LatencyCount == 0 {
		t.Fatal("golden scenario measured no latencies")
	}
	if got := st.LatencyHist.Total(); got != st.LatencyCount {
		t.Errorf("histogram total %d != LatencyCount %d", got, st.LatencyCount)
	}
	for _, q := range []float64{50, 95, 99} {
		b := st.Percentile(q)
		if b < 0 || b > 2*st.LatencyMax+1 {
			t.Errorf("Percentile(%g) = %d outside (0, 2*max] with max %d", q, b, st.LatencyMax)
		}
	}
	if p50, p99 := st.Percentile(50), st.Percentile(99); p50 > p99 {
		t.Errorf("p50 %d > p99 %d", p50, p99)
	}
}

// TestLatencyAnatomyPartition checks the decomposition table's
// invariant at the Stats level on the golden run: the four disjoint
// component sums partition the total latency sum, and the anatomy
// table renders every component.
func TestLatencyAnatomyPartition(t *testing.T) {
	res, err := Run(goldenParams())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if got := st.LatQueueSum + st.LatRouteSum + st.LatBlockedSum + st.LatMovingSum; got != st.LatencySum {
		t.Errorf("component sums %d != LatencySum %d", got, st.LatencySum)
	}
	if st.LatMovingSum == 0 || st.LatRouteSum == 0 {
		t.Errorf("degenerate decomposition: moving=%d route=%d", st.LatMovingSum, st.LatRouteSum)
	}
	var b strings.Builder
	if err := LatencyAnatomy(st).Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"source-queue wait", "moving", "p99 latency", "total (mean latency)"} {
		if !strings.Contains(out, want) {
			t.Errorf("anatomy table missing %q:\n%s", want, out)
		}
	}
}

// TestRingOverlayOnFaultyRun checks the f-ring latency overlay and the
// per-link ring tags against each other on a faulty golden run: rings
// exist, some measured messages traversed them, and the overlay never
// exceeds the total latency.
func TestRingOverlayOnFaultyRun(t *testing.T) {
	p := goldenParams()
	p.Config = DefaultEngineConfig()
	p.Config.ChannelTelemetry = true
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.RingEntries == 0 {
		t.Skip("golden fault pattern produced no ring traffic at this load")
	}
	if st.LatRingSum < 0 || st.LatRingSum > st.LatencySum {
		t.Errorf("ring overlay %d outside [0, %d]", st.LatRingSum, st.LatencySum)
	}
	onRing := 0
	for _, tag := range res.Links.OnRing {
		if tag {
			onRing++
		}
	}
	if onRing == 0 {
		t.Error("faulty run has ring entries but no ring-tagged links")
	}
}

// TestLinkViewAndTableFromRun exercises the reporting pipeline end to
// end on a faulty telemetry run: composite views render for every
// metric, the CSV table lists only existing links, and the faulty
// node is marked.
func TestLinkViewAndTableFromRun(t *testing.T) {
	p := goldenParams()
	p.Config = DefaultEngineConfig()
	p.Config.ChannelTelemetry = true
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []LinkMetric{LinkFlits, LinkBusy, LinkBlocked} {
		lv, err := res.LinkView(metric)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := lv.Write(&b); err != nil {
			t.Fatalf("%v view: %v", metric, err)
		}
		if !strings.Contains(b.String(), "X") {
			t.Errorf("%v view does not mark the faulty nodes", metric)
		}
	}
	lt, err := res.LinkTable()
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := lt.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(csv.String(), "\n")
	existing := 0
	mesh := res.Faults.Topo
	for id := topology.NodeID(0); int(id) < mesh.NodeCount(); id++ {
		for d := topology.Direction(0); d < topology.NumDirs; d++ {
			if res.linkExists(id, d) {
				existing++
			}
		}
	}
	if lines != existing+1 { // header + one row per existing link
		t.Errorf("link CSV has %d lines, want %d (header + %d links)", lines, existing+1, existing)
	}

	// Telemetry-off runs fail loudly instead of reporting nothing.
	plain, err := Run(goldenParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.LinkView(LinkFlits); err == nil {
		t.Error("LinkView on a telemetry-off run did not error")
	}
	if _, err := plain.LinkTable(); err == nil {
		t.Error("LinkTable on a telemetry-off run did not error")
	}
	if _, err := plain.RingSplit(LinkBlocked); err == nil {
		t.Error("RingSplit on a telemetry-off run did not error")
	}
}
