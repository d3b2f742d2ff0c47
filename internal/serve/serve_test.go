package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wormmesh/internal/core"
	"wormmesh/internal/sim"
)

// quickParams is a cell small enough for handler tests: a 6×6 mesh,
// short messages, ~1s simulated in well under 100ms.
func quickParams() sim.Params {
	p := sim.DefaultParams()
	p.Width, p.Height = 6, 6
	p.Rate = 0.002
	p.MessageLength = 20
	p.WarmupCycles = 200
	p.MeasureCycles = 800
	return p
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postRun(t *testing.T, url string, p sim.Params, wait bool) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(runRequest{Params: p, Wait: wait})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestKeyNormalization: the cache-key contract over real Params — a
// request spelling every default explicitly and one leaving them zero
// address the same entry; meaningful differences do not.
func TestKeyNormalization(t *testing.T) {
	explicit := quickParams() // DefaultParams spells defaults out
	sparse := sim.Params{
		Width: 6, Height: 6,
		Rate: 0.002, MessageLength: 20,
		WarmupCycles: 200, MeasureCycles: 800,
	}
	k1, np1, err := Key(explicit)
	if err != nil {
		t.Fatal(err)
	}
	k2, np2, err := Key(sparse)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("explicit defaults keyed %s, sparse %s\nnp1=%+v\nnp2=%+v", k1, k2, np1, np2)
	}

	// Worker counts >= 1 share the parallel arbitration model.
	w4 := explicit
	w4.EngineWorkers = 4
	w1 := explicit
	w1.EngineWorkers = 1
	k4, _, _ := Key(w4)
	kw1, _, _ := Key(w1)
	if k4 != kw1 {
		t.Error("EngineWorkers 4 and 1 keyed differently (worker count is capacity, not configuration)")
	}
	if k4 == k1 {
		t.Error("parallel and serial engines keyed identically (their arbitration differs)")
	}

	// Observers never change Stats: an observed request shares the key.
	traced := explicit
	traced.TraceWriter = &bytes.Buffer{}
	traced.Sampler = core.NewWindowSampler(100, 0)
	traced.Config.ChannelTelemetry = true
	kt, _, _ := Key(traced)
	if kt != k1 {
		t.Error("observer fields leaked into the cache key")
	}

	// Meaningful differences must split.
	diff := explicit
	diff.Rate = 0.004
	if kd, _, _ := Key(diff); kd == k1 {
		t.Error("different Rate collided")
	}

	// Fault-free requests ignore FaultSeed; faulted ones don't.
	fs := explicit
	fs.FaultSeed = 77
	if kf, _, _ := Key(fs); kf != k1 {
		t.Error("FaultSeed split fault-free requests")
	}
	f1 := explicit
	f1.Faults = 3
	f2 := f1
	f2.FaultSeed = 77
	kf1, _, _ := Key(f1)
	kf2, _, _ := Key(f2)
	if kf1 == kf2 {
		t.Error("FaultSeed ignored for faulted requests")
	}

	// Unrunnable requests are rejected at the door.
	for name, bad := range map[string]sim.Params{
		"no dims":   {Rate: 0.001},
		"no rate":   {Width: 6, Height: 6},
		"bad alg":   {Width: 6, Height: 6, Rate: 0.001, Algorithm: "nope"},
		"torus MA":  {Width: 6, Height: 6, Rate: 0.001, Topology: "torus", Algorithm: "Minimal-Adaptive"},
		"neg fault": {Width: 6, Height: 6, Rate: 0.001, Faults: -1},
	} {
		if _, _, err := Key(bad); err == nil {
			t.Errorf("%s: Key accepted unrunnable params", name)
		}
	}
}

// TestRunWarmHit: a second identical request is served from cache with
// the same body — and after a restart over the same directory, from
// disk with the same ResultDigest.
func TestRunWarmHit(t *testing.T) {
	dir := t.TempDir()
	p := quickParams()

	s1, ts1 := newTestServer(t, Config{Dir: dir})
	resp, cold := postRun(t, ts1.URL, p, true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d: %s", resp.StatusCode, cold)
	}
	if h := resp.Header.Get("X-Cache"); h != "miss" {
		t.Errorf("cold X-Cache = %q", h)
	}
	resp, warm := postRun(t, ts1.URL, p, true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: status %d", resp.StatusCode)
	}
	if h := resp.Header.Get("X-Cache"); h != "hit" {
		t.Errorf("warm X-Cache = %q", h)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("warm body differs from cold body")
	}
	var coldEntry Entry
	if err := json.Unmarshal(cold, &coldEntry); err != nil {
		t.Fatal(err)
	}
	if coldEntry.Provenance != "simulated" || coldEntry.ResultDigest == "" {
		t.Fatalf("cold entry malformed: %+v", coldEntry)
	}
	hits1, _, _ := s1.Cache().Stats()
	if hits1 != 1 {
		t.Errorf("hits after warm request = %d", hits1)
	}
	ts1.Close()
	s1.Close()

	// Restart over the same directory: the disk tier must answer with
	// the identical digest, no simulation.
	s2, ts2 := newTestServer(t, Config{Dir: dir})
	resp, again := postRun(t, ts2.URL, p, true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restart: status %d", resp.StatusCode)
	}
	if h := resp.Header.Get("X-Cache"); h != "hit" {
		t.Errorf("restart X-Cache = %q (disk store did not survive)", h)
	}
	var e2 Entry
	if err := json.Unmarshal(again, &e2); err != nil {
		t.Fatal(err)
	}
	if e2.ResultDigest != coldEntry.ResultDigest {
		t.Errorf("restart digest %s != original %s", e2.ResultDigest, coldEntry.ResultDigest)
	}
	_, diskHits, _ := s2.Cache().Stats()
	if diskHits != 1 {
		t.Errorf("disk hits after restart = %d", diskHits)
	}
}

// TestSingleflight: N concurrent identical misses run exactly one
// simulation and every caller reads bit-identical bytes. Run under
// -race in CI.
func TestSingleflight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	var sims atomic.Int64
	inner := s.sched.run
	s.sched.run = func(r *sim.Runner, p sim.Params) (sim.Result, error) {
		sims.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the dedup window
		return inner(r, p)
	}

	const callers = 32
	p := quickParams()
	bodies := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := json.Marshal(runRequest{Params: p, Wait: true})
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("caller %d: status %d: %s", i, resp.StatusCode, buf.String())
				return
			}
			bodies[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	if n := sims.Load(); n != 1 {
		t.Errorf("%d concurrent identical requests ran %d simulations, want 1", callers, n)
	}
	for i := 1; i < callers; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("caller %d read different bytes", i)
		}
	}
}

// TestBackpressure: a full queue answers 429 with a Retry-After.
func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	s.sched.run = func(r *sim.Runner, p sim.Params) (sim.Result, error) {
		<-release
		return r.Run(p)
	}
	defer close(release)

	// Occupy the worker, then the single queue slot, with distinct keys.
	for i := 0; i < 2; i++ {
		p := quickParams()
		p.Seed = int64(100 + i)
		resp, _ := postRun(t, ts.URL, p, false)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("setup request %d: status %d", i, resp.StatusCode)
		}
	}
	// Give the worker a moment to dequeue the first job.
	deadline := time.Now().Add(time.Second)
	for s.sched.QueueDepth() > 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	p := quickParams()
	p.Seed = 999
	resp, _ := postRun(t, ts.URL, p, false)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
}

// TestSweepEndpoint: a waited sweep simulates every cell once; the
// identical re-POST answers entirely from cache with identical digests.
func TestSweepEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	var sims atomic.Int64
	inner := s.sched.run
	s.sched.run = func(r *sim.Runner, p sim.Params) (sim.Result, error) {
		sims.Add(1)
		return inner(r, p)
	}

	base := quickParams()
	req := sweepRequest{
		Base:       base,
		Algorithms: []string{"Duato", "NHop"},
		Rates:      []float64{0.001, 0.002, 0.003},
		Wait:       true,
	}
	post := func() sweepResponse {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr sweepResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep status %d", resp.StatusCode)
		}
		return sr
	}

	first := post()
	if first.Status != "done" || first.Done != 6 || len(first.Cells) != 6 {
		t.Fatalf("first sweep: %+v", first)
	}
	if n := sims.Load(); n != 6 {
		t.Fatalf("first sweep ran %d simulations, want 6", n)
	}
	for _, c := range first.Cells {
		if c.Provenance != "simulated" || c.Result == nil || c.Result.ResultDigest == "" {
			t.Fatalf("cell %s@%g: %+v", c.Algorithm, c.Rate, c)
		}
	}

	second := post()
	if n := sims.Load(); n != 6 {
		t.Errorf("re-POST ran %d new simulations, want 0", n-6)
	}
	if second.Status != "done" {
		t.Fatalf("second sweep status %q", second.Status)
	}
	for i, c := range second.Cells {
		if c.Result.ResultDigest != first.Cells[i].Result.ResultDigest {
			t.Errorf("cell %d digest changed across identical sweeps", i)
		}
	}
	if second.ID != first.ID {
		t.Errorf("sweep ID not content-addressed: %s vs %s", second.ID, first.ID)
	}
}

// TestSweepModelFastPath: a no-wait sweep answers misses instantly with
// provenance "model" where the surrogate applies, and the job endpoint
// tracks completion until every cell is simulated.
func TestSweepModelFastPath(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	base := quickParams()
	req := sweepRequest{Base: base, Rates: []float64{0.001, 0.002}}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr sweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("no-wait sweep status %d, want 202", resp.StatusCode)
	}
	for _, c := range sr.Cells {
		if c.Provenance != "model" || c.Model == nil {
			t.Fatalf("miss not model-answered: %+v", c)
		}
		if c.Model.Provenance != "model" || c.Model.Knee <= 0 {
			t.Fatalf("model answer malformed: %+v", c.Model)
		}
		if !c.Model.Saturated && float64(c.Model.Latency) <= 0 {
			t.Fatalf("stable-region model latency %v", c.Model.Latency)
		}
	}

	// Poll the job handle until done.
	deadline := time.Now().Add(30 * time.Second)
	for {
		jr, err := http.Get(ts.URL + sr.StatusURL)
		if err != nil {
			t.Fatal(err)
		}
		var js sweepResponse
		if err := json.NewDecoder(jr.Body).Decode(&js); err != nil {
			t.Fatal(err)
		}
		jr.Body.Close()
		if js.Status == "done" {
			for _, c := range js.Cells {
				if c.Provenance != "simulated" {
					t.Fatalf("done sweep cell still %q", c.Provenance)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never completed: %+v", js)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestModelAnswerUnsupported: torus cells get no surrogate answer.
func TestModelAnswerUnsupported(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := quickParams()
	p.Topology = "torus"
	_, np, err := Key(p)
	if err != nil {
		t.Fatal(err)
	}
	if m := s.modelAnswer(np); m != nil {
		t.Errorf("torus got a model answer: %+v", m)
	}
	mesh := quickParams()
	_, np, err = Key(mesh)
	if err != nil {
		t.Fatal(err)
	}
	if m := s.modelAnswer(np); m == nil {
		t.Error("mesh cell got no model answer")
	}
}

// TestJobStatusEndpoint covers the run-key side of /jobs: pending,
// then done with the result, and 404s for unknown keys.
func TestJobStatusEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	inner := s.sched.run
	s.sched.run = func(r *sim.Runner, p sim.Params) (sim.Result, error) {
		<-release
		return inner(r, p)
	}

	p := quickParams()
	resp, body := postRun(t, ts.URL, p, false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var acc runAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Model == nil || acc.Model.Provenance != "model" {
		t.Errorf("run miss got no model fast path: %+v", acc)
	}

	jr, err := http.Get(ts.URL + acc.StatusURL)
	if err != nil {
		t.Fatal(err)
	}
	var st runStatus
	json.NewDecoder(jr.Body).Decode(&st)
	jr.Body.Close()
	if st.Status != "queued" && st.Status != "running" {
		t.Errorf("pre-release status %q", st.Status)
	}

	close(release)
	deadline := time.Now().Add(30 * time.Second)
	for {
		jr, err := http.Get(ts.URL + acc.StatusURL)
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(jr.Body).Decode(&st)
		jr.Body.Close()
		if st.Status == "done" {
			if st.Result == nil || st.Result.Provenance != "simulated" {
				t.Fatalf("done status carries no result: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	nf, err := http.Get(ts.URL + "/jobs/no-such-key")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", nf.StatusCode)
	}
}

// TestRunRejectsBadParams: normalization failures are 400s, not 500s.
func TestRunRejectsBadParams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := sim.Params{Width: 6, Height: 6, Rate: 0.001, Algorithm: "no-such"}
	resp, _ := postRun(t, ts.URL, p, true)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400", resp.StatusCode)
	}
	r2, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", r2.StatusCode)
	}
}

// TestHealthz sanity-checks the liveness endpoint.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}
