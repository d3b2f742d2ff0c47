package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"wormmesh/internal/core"
	"wormmesh/internal/sim"
	"wormmesh/internal/trace"
)

// End-to-end trace assertions: every request archetype (cached hit,
// simulated miss, surrogate fast path) must produce a complete span
// tree — no orphans, stages nested under one root, and the sum of
// stage durations bounded by the observed wall time.

// getTrace fetches and decodes GET /traces/{id}.
func getTrace(t *testing.T, url, id string) traceResponse {
	t.Helper()
	resp, err := http.Get(url + "/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /traces/%s: status %d", id, resp.StatusCode)
	}
	var tr traceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

// childByName finds a direct child span by name, or nil.
func childByName(root *traceSpanJSON, name string) *traceSpanJSON {
	for _, c := range root.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// assertCompleteTree checks the structural invariants every trace must
// satisfy: exactly one root, zero orphans, every named stage present,
// and the named stages' durations summing to no more than the root's
// wall time (they run sequentially inside the request; spans from a
// background job legitimately outlive the root and are not counted).
func assertCompleteTree(t *testing.T, tr traceResponse, wantStages []string) *traceSpanJSON {
	t.Helper()
	if tr.Orphans != 0 {
		t.Errorf("trace %s has %d orphan spans", tr.TraceID, tr.Orphans)
	}
	if len(tr.Tree) != 1 {
		t.Fatalf("trace %s has %d roots, want 1", tr.TraceID, len(tr.Tree))
	}
	root := tr.Tree[0]
	var sum float64
	for _, name := range wantStages {
		c := childByName(root, name)
		if c == nil {
			t.Errorf("trace %s missing stage span %q (have %v)", tr.TraceID, name, spanNames(root))
			continue
		}
		sum += c.DurationSeconds
	}
	if sum > root.DurationSeconds {
		t.Errorf("stage durations sum %.6fs > root wall %.6fs", sum, root.DurationSeconds)
	}
	return root
}

func spanNames(root *traceSpanJSON) []string {
	names := make([]string, 0, len(root.Children))
	for _, c := range root.Children {
		names = append(names, c.Name)
	}
	return names
}

// TestTraceSimulatedMiss: a waited miss records the full pipeline —
// normalize, cache.lookup, queue.wait, run (with engine events
// attached), store.write — all under the request's root span.
func TestTraceSimulatedMiss(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postRun(t, ts.URL, quickParams(), true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Fatal("response carries no X-Trace-Id")
	}
	if tp := resp.Header.Get("Traceparent"); tp == "" {
		t.Error("response carries no Traceparent")
	}

	tr := getTrace(t, ts.URL, id)
	root := assertCompleteTree(t, tr,
		[]string{"normalize", "cache.lookup", "queue.wait", "run", "store.write"})
	if root.Name != "HTTP POST /run" {
		t.Errorf("root span %q", root.Name)
	}
	run := childByName(root, "run")
	if run.EngineEvents == 0 {
		t.Error("run span has no decoded engine events")
	}
	if n, ok := run.Attrs["engine_events"].(float64); !ok || n <= 0 {
		t.Errorf("run span engine_events attr = %v", run.Attrs["engine_events"])
	}
	if childByName(root, "cache.lookup").Attrs["tier"] != nil {
		t.Error("miss lookup span claims a cache tier")
	}
}

// TestTraceCachedHit: a warm hit's trace is just edge work — normalize
// and a tier-tagged cache.lookup, no queue/run/store spans.
func TestTraceCachedHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := quickParams()
	postRun(t, ts.URL, p, true) // warm
	resp, _ := postRun(t, ts.URL, p, true)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("X-Cache = %q", got)
	}
	if got := resp.Header.Get("X-Cache-Tier"); got != TierMemory {
		t.Errorf("X-Cache-Tier = %q, want %q", got, TierMemory)
	}

	tr := getTrace(t, ts.URL, resp.Header.Get("X-Trace-Id"))
	root := assertCompleteTree(t, tr, []string{"normalize", "cache.lookup"})
	lookup := childByName(root, "cache.lookup")
	if tier := lookup.Attrs["tier"]; tier != TierMemory {
		t.Errorf("hit lookup tier = %v", tier)
	}
	for _, absent := range []string{"queue.wait", "run", "store.write"} {
		if childByName(root, absent) != nil {
			t.Errorf("cached hit recorded a %q span", absent)
		}
	}
}

// TestTraceDiskTier: a restart over the same store directory serves
// from disk, and both the header and the span say so.
func TestTraceDiskTier(t *testing.T) {
	dir := t.TempDir()
	p := quickParams()
	s1, ts1 := newTestServer(t, Config{Dir: dir})
	postRun(t, ts1.URL, p, true)
	ts1.Close()
	s1.Close()

	_, ts2 := newTestServer(t, Config{Dir: dir})
	resp, _ := postRun(t, ts2.URL, p, true)
	if got := resp.Header.Get("X-Cache-Tier"); got != TierDisk {
		t.Fatalf("X-Cache-Tier = %q, want %q", got, TierDisk)
	}
	tr := getTrace(t, ts2.URL, resp.Header.Get("X-Trace-Id"))
	root := assertCompleteTree(t, tr, []string{"cache.lookup"})
	if tier := childByName(root, "cache.lookup").Attrs["tier"]; tier != TierDisk {
		t.Errorf("disk hit lookup tier = %v", tier)
	}
}

// TestTraceSurrogateFastPath: a no-wait miss answers with the analytic
// model immediately (model.answer span inside the request) while the
// exact simulation's spans — queue.wait, run, store.write — join the
// same trace as the background job completes.
func TestTraceSurrogateFastPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postRun(t, ts.URL, quickParams(), false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var acc runAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Model == nil {
		t.Fatal("no-wait miss got no model fast path")
	}
	id := resp.Header.Get("X-Trace-Id")

	// The synchronous half must already be complete.
	tr := getTrace(t, ts.URL, id)
	assertCompleteTree(t, tr, []string{"normalize", "cache.lookup", "model.answer"})
	if ma := childByName(tr.Tree[0], "model.answer"); ma.Attrs["applicable"] != true {
		t.Errorf("model.answer applicable = %v", ma.Attrs["applicable"])
	}

	// Background job spans land under the same root as it finishes.
	deadline := time.Now().Add(30 * time.Second)
	for {
		tr = getTrace(t, ts.URL, id)
		if len(tr.Tree) == 1 && childByName(tr.Tree[0], "store.write") != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job spans never joined the trace: %v", spanNames(tr.Tree[0]))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if tr.Orphans != 0 {
		t.Errorf("completed surrogate trace has %d orphans", tr.Orphans)
	}
	for _, name := range []string{"queue.wait", "run"} {
		if childByName(tr.Tree[0], name) == nil {
			t.Errorf("completed trace missing %q (have %v)", name, spanNames(tr.Tree[0]))
		}
	}
}

// TestTraceparentPropagation: an upstream Traceparent header pins the
// trace ID; our spans join the caller's trace instead of starting one.
func TestTraceparentPropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const parent = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("Traceparent", parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "0123456789abcdef0123456789abcdef" {
		t.Errorf("X-Trace-Id = %q, did not adopt upstream trace", got)
	}
	tr := getTrace(t, ts.URL, "0123456789abcdef0123456789abcdef")
	// The upstream parent span is not in our ring, so our root is an
	// orphan from BuildTree's perspective — it still renders as a root.
	if len(tr.Tree) != 1 || tr.Tree[0].ParentID != "00f067aa0ba902b7" {
		t.Fatalf("propagated trace tree malformed: %+v", tr)
	}
}

// TestErrorEnvelopeTraceID: every error body is the one JSON envelope,
// and it names the trace that can explain it.
func TestErrorEnvelopeTraceID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := quickParams()
	p.Algorithm = "no-such"
	resp, body := postRun(t, ts.URL, p, true)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var env map[string]any
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not JSON: %s", body)
	}
	if env["error"] == "" || env["error"] == nil {
		t.Errorf("envelope missing error: %s", body)
	}
	if env["trace_id"] != resp.Header.Get("X-Trace-Id") {
		t.Errorf("envelope trace_id %v != header %q", env["trace_id"], resp.Header.Get("X-Trace-Id"))
	}

	// Unknown paths get the same envelope shape.
	r2, err := http.Get(ts.URL + "/no/such/path")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status %d", r2.StatusCode)
	}
	var env2 map[string]any
	if err := json.NewDecoder(r2.Body).Decode(&env2); err != nil {
		t.Errorf("404 body is not the JSON envelope: %v", err)
	} else if env2["trace_id"] != r2.Header.Get("X-Trace-Id") {
		t.Errorf("404 envelope trace_id %v != header %q", env2["trace_id"], r2.Header.Get("X-Trace-Id"))
	}
}

// TestTraceNeutrality: the golden contract — tracing and the engine
// bridge never perturb Stats. The same cell simulated on a fully
// traced server and on one with tracing and the engine bridge disabled
// yields bit-identical ResultDigests.
func TestTraceNeutrality(t *testing.T) {
	p := quickParams()
	digest := func(cfg Config) string {
		t.Helper()
		_, ts := newTestServer(t, cfg)
		resp, body := postRun(t, ts.URL, p, true)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var e Entry
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatal(err)
		}
		if e.ResultDigest == "" {
			t.Fatal("entry has no digest")
		}
		return e.ResultDigest
	}
	traced := digest(Config{})                               // tracing + engine bridge on
	dark := digest(Config{TraceSpans: -1, EngineEvents: -1}) // everything off
	bridgeless := digest(Config{EngineEvents: -1})           // spans on, bridge off
	if traced != dark || traced != bridgeless {
		t.Errorf("tracing perturbed Stats: traced=%s dark=%s bridgeless=%s", traced, dark, bridgeless)
	}
}

// TestTracingDisabled: TraceSpans < 0 turns the span layer off — no
// trace headers, /traces 404s, requests still work.
func TestTracingDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSpans: -1})
	resp, _ := postRun(t, ts.URL, quickParams(), true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if id := resp.Header.Get("X-Trace-Id"); id != "" {
		t.Errorf("disabled tracing still stamped X-Trace-Id %q", id)
	}
	r2, err := http.Get(ts.URL + "/traces/0123456789abcdef0123456789abcdef")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("/traces with tracing off: status %d, want 404", r2.StatusCode)
	}
}

// TestReadyz: ready while running; 503 with a reason once the
// scheduler has shut down (the draining state a load balancer must
// see before /healthz goes dark).
func TestReadyz(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rr readyzResponse
	json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !rr.Ready {
		t.Fatalf("running server readyz: status %d, body %+v", resp.StatusCode, rr)
	}

	s.sched.Close()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("closed scheduler readyz: status %d, want 503", rec.Code)
	}
	var closed readyzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &closed); err != nil {
		t.Fatal(err)
	}
	if closed.Ready || len(closed.Reasons) == 0 {
		t.Errorf("closed readyz body: %+v", closed)
	}
}

// TestHealthzBody: the liveness body carries the status snapshot.
func TestHealthzBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postRun(t, ts.URL, quickParams(), true)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if !hz.OK || hz.CacheEntries != 1 || hz.TraceSpans == 0 {
		t.Errorf("healthz body: %+v", hz)
	}
}

// TestChromeExportEndpoint: /traces/{id}.json is valid Chrome trace
// JSON with both process tracks.
func TestChromeExportEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postRun(t, ts.URL, quickParams(), true)
	id := resp.Header.Get("X-Trace-Id")
	r2, err := http.Get(ts.URL + "/traces/" + id + ".json")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(r2.Body)
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	pids := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		if pid, ok := ev["pid"].(float64); ok {
			pids[pid] = true
		}
	}
	if !pids[1] || !pids[2] {
		t.Errorf("chrome export missing a track: service=%v engine=%v", pids[1], pids[2])
	}
}

// engineTrack decodes a Chrome export and keeps the engine process's
// events: the per-message slices and instants on the cycle timeline.
func engineTrack(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	var out []map[string]any
	for _, ev := range doc.TraceEvents {
		if ev["pid"] == float64(2) {
			out = append(out, ev)
		}
	}
	return out
}

// TestChromeExportKeepsEngineHistory: a run span holds a compact
// snapshot of its job's flight recorder rather than a decoded copy, so
// the export must still show exactly the events the recorder held at
// run end after the same pooled Runner has simulated further jobs.
func TestChromeExportKeepsEngineHistory(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, WindowCycles: -1})
	var (
		mu      sync.Mutex
		atEnd   []core.FlightLog
		runners []*sim.Runner
	)
	inner := s.sched.run
	s.sched.run = func(r *sim.Runner, p sim.Params) (sim.Result, error) {
		res, err := inner(r, p)
		mu.Lock()
		atEnd = append(atEnd, p.FlightRecorder.Snapshot())
		runners = append(runners, r)
		mu.Unlock()
		return res, err
	}
	p := quickParams()
	resp, _ := postRun(t, ts.URL, p, true)
	id := resp.Header.Get("X-Trace-Id")
	for _, rate := range []float64{0.003, 0.004} {
		q := p
		q.Rate = rate
		if r, body := postRun(t, ts.URL, q, true); r.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", r.StatusCode, body)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(runners) != 3 || runners[1] != runners[0] || runners[2] != runners[0] {
		t.Fatalf("jobs did not share one pooled Runner: %p", runners)
	}
	if len(atEnd[0]) == 0 {
		t.Fatal("first job recorded no engine events")
	}

	r2, err := http.Get(ts.URL + "/traces/" + id + ".json")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(r2.Body); err != nil {
		t.Fatal(err)
	}
	tr := trace.New(1)
	span := tr.Start("run", trace.Context{})
	span.AttachEngine(atEnd[0])
	span.End()
	var want bytes.Buffer
	if err := trace.WriteChrome(&want, tr.Collect(span.TraceID())); err != nil {
		t.Fatal(err)
	}
	if g, w := engineTrack(t, got.Bytes()), engineTrack(t, want.Bytes()); !reflect.DeepEqual(g, w) {
		t.Errorf("exported engine track (%d events) differs from the recorder at run end (%d events)", len(g), len(w))
	}
}

// TestShortRunsKeepEngineBudget: each run span keeps exactly the events
// its run recorded, not its recorder's whole ring, so the tracer's
// engine budget (counted in events) bounds the bytes the ring retains.
// The jobs are short enough that their rings' total capacity exceeds
// the budget while the events they record fit it, so nothing is shed.
func TestShortRunsKeepEngineBudget(t *testing.T) {
	const jobs = 20
	if jobs*core.DefaultFlightRecorderEvents <= trace.DefaultEngineBudget {
		t.Fatal("too few jobs for their rings to exceed the engine budget")
	}
	s, ts := newTestServer(t, Config{})
	var ids []trace.TraceID
	for i := range jobs {
		p := quickParams()
		p.Rate = 0.0005 + float64(i)*1e-5
		p.WarmupCycles, p.MeasureCycles = 50, 200
		resp, body := postRun(t, ts.URL, p, true)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		id, ok := trace.ParseTraceID(resp.Header.Get("X-Trace-Id"))
		if !ok {
			t.Fatal("response carries no X-Trace-Id")
		}
		ids = append(ids, id)
	}
	runs, heldEvents := 0, 0
	for _, id := range ids {
		for _, sd := range s.Tracer().Collect(id) {
			if sd.Name != "run" {
				continue
			}
			runs++
			log, ok := sd.Engine.(core.FlightLog)
			if !ok {
				t.Fatalf("run span holds engine history of type %T, want core.FlightLog", sd.Engine)
			}
			if log.Len() == 0 || cap(log) != log.Len() {
				t.Errorf("run span log Len/cap = %d/%d, want equal and non-zero", log.Len(), cap(log))
			}
			heldEvents += cap(log)
		}
	}
	if runs != jobs {
		t.Fatalf("found %d run spans, want %d", runs, jobs)
	}
	if heldEvents > trace.DefaultEngineBudget {
		t.Errorf("run spans retain storage for %d events, budget %d", heldEvents, trace.DefaultEngineBudget)
	}
}
