package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"wormmesh/internal/metrics"
	"wormmesh/internal/routing"
	"wormmesh/internal/sim"
	"wormmesh/internal/sweep"
	"wormmesh/internal/trace"
)

// --- shared by both serve workloads -------------------------------------

// spanSampleEvery is how many responses share one kept X-Trace-Id in a
// traced run.
const spanSampleEvery = 32

// tracedServerSpans sizes the traced server's span ring to hold a whole
// window (the default 8192 would keep only the last second of hits).
const tracedServerSpans = "131072"

// serverMeasurement is what one timed window against one meshserve
// yielded, before it is decided which metrics it feeds.
type serverMeasurement struct {
	win          window
	cpu          time.Duration // server user+sys over the window
	rssMB        float64
	runRequests  int64     // POST /run the generator sent in the window
	clientMeanMS float64   // mean latency over those, as the generator saw it
	traceIDs     []string  // kept X-Trace-Id sample (traced servers only)
	p50MS        float64   // the workload's reference latency
	tailMS       float64   // its tail
	throughput   float64   // operations per second in the throughput phase
	simCycles    float64   // simulated cycles per delivered operation
	deliveredOps int64     // operations the CPU cost is spread over
	extra        []emitted // workload-specific per-layer values
}

type emitted struct {
	name    string
	value   float64
	samples int
}

// settle re-reads /metrics until the server's counters have caught up
// with what the generator saw: meshserve counts a request after writing
// its response, and a simulation after waking the requests that waited
// for it, so the last replies can arrive before their increments. It
// waits for the run-route counter to reach the requests sent and for no
// job to be queued or running.
func settle(srv *server, before scrape, sent int64) (window, error) {
	const series = `wormmesh_serve_http_requests_total{route="run"}`
	var after scrape
	for try := 0; try < 100; try++ {
		var err error
		if after, err = srv.scrape(); err != nil {
			return window{}, err
		}
		idle := after["wormmesh_serve_jobs_running"] == 0 && after["wormmesh_serve_queue_depth"] == 0
		if idle && int64(after[series]-before[series]) >= sent {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return window{before, after}, nil
}

// crossCheck holds the generator's account of a window against the
// server's own counters (ROADMAP 1c: the two must agree or one of them
// is lying). Each identity is one checked operation.
func crossCheck(res *results, m serverMeasurement, distinctCold int64) {
	w := m.win
	check := func(ok bool, format string, args ...any) {
		if ok {
			res.op(nil)
		} else {
			res.op(fmt.Errorf("cross-check: "+format, args...))
		}
	}
	served := int64(w.delta(`http_requests_total{route="run"}`))
	check(served == m.runRequests, "generator sent %d POST /run, server counted %d", m.runRequests, served)
	hits, misses := int64(w.delta("cache_hits_total")), int64(w.delta("cache_misses_total"))
	check(hits+misses == m.runRequests, "cache hits %d + misses %d != %d requests sent", hits, misses, m.runRequests)
	dedup, sims := int64(w.delta("deduplicated_total")), int64(w.delta("simulations_total"))
	check(dedup+sims == misses, "deduplicated %d + simulations %d != %d misses", dedup, sims, misses)
	check(sims >= distinctCold, "%d simulations for %d distinct cold keys", sims, distinctCold)
	serverMeanMS := 1e3 * w.histMean("http_request_seconds", `route="run"`)
	check(m.clientMeanMS >= serverMeanMS, "client mean %.4f ms below server mean %.4f ms", m.clientMeanMS, serverMeanMS)
}

// emitServerLayers emits the per-layer metrics every serve workload
// reads off the server's counters.
func emitServerLayers(res *results, m serverMeasurement, distinctCold int64) {
	w := m.win
	n := int(m.runRequests)
	hits, disk := w.delta("cache_hits_total"), w.delta("cache_disk_hits_total")
	sims := w.delta("simulations_total")
	useful := 1.0
	if sims > 0 {
		useful = float64(distinctCold) / sims
	}
	serverMeanUS := 1e6 * w.histMean("http_request_seconds", `route="run"`)
	res.emit("serve.http_run_mean_us", serverMeanUS, n)
	res.emit("serve.lookup_mem_mean_us", 1e6*w.histMean("lookup_seconds", `tier="memory"`), int(hits-disk))
	res.emit("serve.lookup_disk_mean_us", 1e6*w.histMean("lookup_seconds", `tier="disk"`), int(disk))
	res.emit("serve.queue_wait_mean_ms", 1e3*w.histMean("queue_wait_seconds", ""), int(sims))
	res.emit("serve.run_mean_ms", 1e3*w.histMean("run_seconds", ""), int(sims))
	res.emit("serve.mem_hit_share", (hits-disk)/math.Max(1, float64(n)), n)
	res.emit("serve.disk_hit_share", disk/math.Max(1, float64(n)), n)
	res.emit("serve.dedup", w.delta("deduplicated_total"), n)
	res.emit("serve.model_answers", w.delta("model_answers_total"), n)
	res.emit("serve.simulations", sims, n)
	res.emit("serve.rejected_429", w.delta("rejected_total"), n)
	res.emit("serve.useful_sim_ratio", useful, int(sims))
	res.emit("serve.cpu_us_per_req", float64(m.cpu.Microseconds())/math.Max(1, float64(n)), n)
	for _, e := range m.extra {
		res.emit(e.name, e.value, e.samples)
	}
}

// emitServeEndToEnd emits the end-to-end metrics of a serve workload
// from its untraced measurement.
func emitServeEndToEnd(res *results, setups []float64, m serverMeasurement) {
	cycles := float64(m.deliveredOps) * m.simCycles
	res.emit("setup_s", median(setups), len(setups))
	res.emit("sim_cycles_per_s", m.throughput*m.simCycles, int(m.deliveredOps))
	res.emit("cpu_s_per_mcycle", m.cpu.Seconds()/cycles*1e6, int(m.deliveredOps))
	res.emit("latency_p50_ms", m.p50MS, int(m.deliveredOps))
	res.emit("latency_tail_ms", m.tailMS, int(m.deliveredOps))
	res.emit("peak_rss_mb", m.rssMB, 1)
}

// spanNode is one span of GET /traces/{id}.
type spanNode struct {
	Name     string      `json:"name"`
	Start    time.Time   `json:"start"`
	Seconds  float64     `json:"duration_seconds"`
	Children []*spanNode `json:"children"`
}

// selfTimes adds each span's self time — its duration minus the part of
// it its children cover — to acc by span name.
func selfTimes(n *spanNode, acc map[string][]float64) {
	end := n.Start.Add(time.Duration(n.Seconds * float64(time.Second)))
	kids := append([]*spanNode(nil), n.Children...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	covered := time.Duration(0)
	cursor := n.Start
	for _, c := range kids {
		cs, ce := c.Start, c.Start.Add(time.Duration(c.Seconds*float64(time.Second)))
		if cs.Before(cursor) {
			cs = cursor
		}
		if ce.After(end) {
			ce = end
		}
		if ce.After(cs) {
			covered += ce.Sub(cs)
			cursor = ce
		}
		selfTimes(c, acc)
	}
	acc[n.Name] = append(acc[n.Name], n.Seconds-covered.Seconds())
}

// spanLayers fetches the kept traces from a traced server and emits the
// mean self time of each service stage along the blocking path.
func spanLayers(res *results, srv *server, ids []string) error {
	const maxFetch = 256
	if len(ids) > maxFetch {
		ids = ids[:maxFetch]
	}
	acc := map[string][]float64{}
	for _, id := range ids {
		resp, err := http.Get(srv.url + "/traces/" + id)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		var tr struct {
			Orphans int         `json:"orphans"`
			Tree    []*spanNode `json:"tree"`
		}
		if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &tr) != nil {
			res.op(fmt.Errorf("GET /traces/%s: status %d", id, resp.StatusCode))
			continue
		}
		if tr.Orphans != 0 {
			res.op(fmt.Errorf("trace %s has %d orphan spans", id, tr.Orphans))
			continue
		}
		res.op(nil)
		for _, root := range tr.Tree {
			selfTimes(root, acc)
		}
	}
	for _, s := range []struct {
		metric, span string
		scale        float64
	}{
		{"serve.span_normalize_us", "normalize", 1e6},
		{"serve.span_lookup_us", "cache.lookup", 1e6},
		{"serve.span_model_us", "model.answer", 1e6},
		{"serve.span_queue_wait_ms", "queue.wait", 1e3},
		{"serve.span_run_ms", "run", 1e3},
		{"serve.span_store_write_ms", "store.write", 1e3},
	} {
		res.emit(s.metric, s.scale*mean(acc[s.span]), len(acc[s.span]))
	}
	return nil
}

// parallelDo runs fn(i) for i in [0,n) on the generator's two clients.
func parallelDo(n int, fn func(i int, buf *bytes.Buffer) error) error {
	due := make([]time.Duration, n) // all due at once: back to back on the two clients
	ph := openLoop(due, func(i int, buf *bytes.Buffer) (string, error) { return "", fn(i, buf) })
	if len(ph.failed) > 0 {
		return fmt.Errorf("%s (and %d more)", ph.failed[0], len(ph.failed)-1)
	}
	return nil
}

// serveRun carries what both serve workloads share across their set-up
// repetitions and windows.
type serveRun struct {
	cfg  config
	res  *results
	bin  string
	root *trace.Span // benchmark-side spans; nil in a plain run
}

// measureServer runs setup (start + warm) the given number of times,
// keeping the last server for one timed window, and returns the set-up
// times with the window's measurement.
func (r *serveRun) measureServer(name string, reps int, args []string,
	setup func(*server, *client) error,
	windowFn func(*server, *client, *trace.Span) (serverMeasurement, error),
) ([]float64, serverMeasurement, error) {
	var setups []float64
	var m serverMeasurement
	for rep := 0; rep < reps; rep++ {
		sp := r.root.Child(name + " set-up")
		t0 := time.Now()
		srv, err := startServer(r.cfg, r.bin, args...)
		if err != nil {
			return nil, m, err
		}
		c := newClient(srv.url)
		err = setup(srv, c)
		setups = append(setups, time.Since(t0).Seconds())
		sp.End()
		if err == nil && rep == reps-1 {
			ws := r.root.Child(name + " window")
			m, err = windowFn(srv, c, ws)
			ws.End()
			if err == nil && len(m.traceIDs) > 0 {
				err = spanLayers(r.res, srv, m.traceIDs)
			}
		}
		if err == nil {
			err = srv.alive()
		}
		c.close()
		srv.stop()
		if err != nil {
			return nil, m, err
		}
	}
	return setups, m, nil
}

// openedWindow holds the server's readings at the start of a timed
// window; close takes the matching readings at its end.
type openedWindow struct {
	srv    *server
	before scrape
	cpu0   time.Duration
}

func openWindow(srv *server) (openedWindow, error) {
	before, err := srv.scrape()
	if err != nil {
		return openedWindow{}, err
	}
	cpu0, err := procCPU(srv.pid())
	return openedWindow{srv, before, cpu0}, err
}

func (o openedWindow) close(m *serverMeasurement) error {
	cpu1, err := procCPU(o.srv.pid())
	if err != nil {
		return err
	}
	m.cpu = cpu1 - o.cpu0
	if m.win, err = settle(o.srv, o.before, m.runRequests); err != nil {
		return err
	}
	m.rssMB, err = peakRSSMB(o.srv.pid())
	return err
}

// --- serve_hot ----------------------------------------------------------

// hotKey is one pre-computed cell of the hit workload.
type hotKey struct {
	body   []byte
	digest string // result_digest the server reported when it computed the cell
}

// hotRungs are the open-loop arrival rates, with the share of the
// window each gets; the closed-loop phase takes the rest.
var hotRungs = []struct {
	rps   float64
	share float64
}{{1000, 0.14}, {2000, 0.48}, {4000, 0.14}}

const (
	hotReferenceRung = 1    // index into hotRungs: 2000 rps
	hotLimitMS       = 5.0  // latency limit on the tail percentile
	hotZipfS         = 1.1  // key popularity skew
	hotKeys          = 1024 // distinct cells; the memory LRU holds a quarter
)

func runServeHot(cfg config, res *results) error {
	bin, err := buildMeshserve(cfg)
	if err != nil {
		return err
	}
	nKeys := max(8, hotKeys/cfg.scale)
	mem := max(2, nKeys/4)
	keys := make([]hotKey, nKeys)
	var one sim.Params
	for i := range keys {
		p := sim.DefaultParams()
		p.Algorithm = routing.AlgorithmNames[i%len(routing.AlgorithmNames)]
		p.Rate = 0.0005
		p.WarmupCycles, p.MeasureCycles = int64(max(50, 200/cfg.scale)), int64(max(50, 800/cfg.scale))
		p.Seed = cfg.seed*100000 + int64(i)
		keys[i].body = requestBody(p)
		one = p
	}
	cellCycles := float64(one.WarmupCycles + one.MeasureCycles)
	length := time.Duration(cfg.seconds / float64(cfg.scale) * float64(time.Second))

	var tracer *trace.Tracer
	run := &serveRun{cfg: cfg, res: res, bin: bin}
	if cfg.trace {
		tracer = trace.New(16384)
		run.root = tracer.Start("serve_hot traced run", trace.Context{})
		length /= 2 // two servers share the time: untraced, then traced
	}

	// Set-up: every key computed once through the server (so each timed
	// request is a hit), then enough Zipf traffic for the LRU to hold
	// the popular quarter it will hold in steady state.
	rng := rand.New(rand.NewSource(cfg.seed))
	zipf := rand.NewZipf(rng, hotZipfS, 1, uint64(nKeys-1))
	var mu sync.Mutex
	setup := func(srv *server, c *client) error {
		err := parallelDo(nKeys, func(i int, buf *bytes.Buffer) error {
			r, err := c.post("/run?wait=1", keys[i].body, buf)
			if err != nil {
				return err
			}
			d := entryDigest(r.body)
			if r.status != http.StatusOK || d == "" {
				return fmt.Errorf("prefill key %d: status %d: %.200s", i, r.status, r.body)
			}
			mu.Lock()
			defer mu.Unlock()
			if keys[i].digest != "" && keys[i].digest != d {
				return fmt.Errorf("prefill key %d: digest %s, an earlier server computed %s", i, d, keys[i].digest)
			}
			keys[i].digest = d
			return nil
		})
		if err != nil {
			return err
		}
		warm := make([]int, 2*mem)
		for i := range warm {
			warm[i] = int(zipf.Uint64())
		}
		return parallelDo(len(warm), func(i int, buf *bytes.Buffer) error {
			_, err := c.post("/run", keys[warm[i]].body, buf)
			return err
		})
	}

	window := func(srv *server, c *client, span *trace.Span) (serverMeasurement, error) {
		return hotWindow(res, srv, c, span, keys, zipf, rng, length, cellCycles)
	}
	plainArgs := []string{"-mem", strconv.Itoa(mem), "-workers", "2", "-trace-spans", "-1"}
	reps := 3
	if cfg.trace {
		reps = 1
	}
	setups, plain, err := run.measureServer("untraced server", reps, plainArgs, setup, window)
	if err != nil {
		return err
	}
	emitServeEndToEnd(res, setups, plain)
	crossCheck(res, plain, 0)
	layers := plain
	if cfg.trace {
		tracedArgs := []string{"-mem", strconv.Itoa(mem), "-workers", "2", "-trace-spans", tracedServerSpans}
		if _, layers, err = run.measureServer("traced server", 1, tracedArgs, setup, window); err != nil {
			return err
		}
		crossCheck(res, layers, 0)
		res.emit("trace.overhead_pct", 100*(layers.p50MS/plain.p50MS-1), int(layers.deliveredOps))
		if err := serveProbes(cfg, res, run.root, one); err != nil {
			return err
		}
	}
	emitServerLayers(res, layers, 0)
	if cfg.trace {
		run.root.End()
		return writeChrome(cfg, tracer, run.root.TraceID())
	}
	res.note("golden: serve_hot checks every hit's result_digest against the digest the server reported when it computed the cell")
	return nil
}

// hotWindow is the timed part of serve_hot: three open-loop rungs of
// Poisson arrivals, then a closed-loop phase, all hits.
func hotWindow(res *results, srv *server, c *client, span *trace.Span, keys []hotKey,
	zipf *rand.Zipf, rng *rand.Rand, length time.Duration, cellCycles float64) (serverMeasurement, error) {
	traced := span != nil
	send := func(draw []int) sendFunc {
		return func(i int, buf *bytes.Buffer) (string, error) {
			k := &keys[draw[i%len(draw)]]
			sent := time.Now()
			r, err := c.post("/run", k.body, buf)
			if err != nil {
				return "", err
			}
			if r.status != http.StatusOK || r.xcache != "hit" {
				return "", fmt.Errorf("hit expected: status %d X-Cache %q", r.status, r.xcache)
			}
			if d := entryDigest(r.body); d != k.digest {
				return "", fmt.Errorf("hit returned digest %s, cell was computed as %s", d, k.digest)
			}
			if !traced || i%spanSampleEvery != 0 {
				return "", nil
			}
			s := span.ChildAt("POST /run (hit)", sent)
			s.Set("server_trace_id", r.traceID)
			s.End()
			return r.traceID, nil
		}
	}
	drawKeys := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = int(zipf.Uint64())
		}
		return out
	}

	var m serverMeasurement
	m.simCycles = cellCycles
	ow, err := openWindow(srv)
	if err != nil {
		return m, err
	}
	var latencySum float64
	var okRate float64
	failedReqs := 0
	for ri, rung := range hotRungs {
		// Poisson arrivals: exponential gaps at the rung's rate.
		rungLen := time.Duration(rung.share * float64(length))
		var due []time.Duration
		for t := time.Duration(0); ; {
			t += time.Duration(rng.ExpFloat64() / rung.rps * float64(time.Second))
			if t >= rungLen {
				break
			}
			due = append(due, t)
		}
		ps := span.Child(fmt.Sprintf("open loop %g rps", rung.rps))
		ph := openLoop(due, send(drawKeys(len(due))))
		ps.End()
		ph.tally(res)
		failedReqs += len(ph.failed)
		if err := srv.alive(); err != nil {
			return m, err
		}
		m.runRequests += int64(len(due))
		lat := ph.latenciesMS()
		for _, l := range lat {
			latencySum += l
		}
		p50, p99 := percentile(lat, 0.50), percentile(lat, 0.99)
		label := strconv.Itoa(int(rung.rps))
		m.extra = append(m.extra,
			emitted{"load.p50_ms_at_" + label + "rps", p50, len(lat)},
			emitted{"load.p99_ms_at_" + label + "rps", p99, len(lat)})
		// A rung is sustained when it meets the latency limit, nothing
		// failed, and the generator was not falling ever further
		// behind: the last twentieth of requests went out about on time.
		var late []float64
		for _, s := range ph.samples {
			late = append(late, ms(s.lateness))
		}
		sort.Slice(ph.samples, func(i, j int) bool { return ph.samples[i].done < ph.samples[j].done })
		var endLate []float64
		for _, s := range ph.samples[len(ph.samples)*19/20:] {
			endLate = append(endLate, ms(s.lateness))
		}
		if p99 <= hotLimitMS && len(ph.failed) == 0 && mean(endLate) <= hotLimitMS {
			okRate = rung.rps
		}
		if ri == hotReferenceRung {
			// The reported tail is the median p99 over five slices of
			// the rung, so one stall of the host does not decide it.
			const slices = 5
			var sliceP99 []float64
			for k := 0; k < slices; k++ {
				part := ph.samples[len(ph.samples)*k/slices : len(ph.samples)*(k+1)/slices]
				lat := make([]float64, len(part))
				for i, s := range part {
					lat[i] = ms(s.latency)
				}
				sliceP99 = append(sliceP99, percentile(lat, 0.99))
			}
			m.p50MS, m.tailMS = p50, median(sliceP99)
			m.extra = append(m.extra, emitted{"load.lateness_p99_ms", percentile(late, 0.99), len(late)})
			for _, s := range ph.samples {
				if s.traceID != "" {
					m.traceIDs = append(m.traceIDs, s.traceID)
				}
			}
		}
	}

	closedLen := length
	for _, rung := range hotRungs {
		closedLen -= time.Duration(rung.share * float64(length))
	}
	ps := span.Child("closed loop")
	ph := closedLoop(closedLen, send(drawKeys(1<<16)))
	ps.End()
	ph.tally(res)
	failedReqs += len(ph.failed)
	m.runRequests += int64(len(ph.samples) + len(ph.failed))
	for _, l := range ph.latenciesMS() {
		latencySum += l
	}
	// Capacity is the median rate over eight slices of the phase, so
	// one stalled slice does not decide it.
	const slices = 8
	counts := make([]float64, slices)
	for _, s := range ph.samples {
		counts[min(slices-1, int(s.done*slices/closedLen))]++
	}
	for i := range counts {
		counts[i] /= closedLen.Seconds() / slices
	}
	m.throughput = median(counts)
	m.deliveredOps = m.runRequests
	m.clientMeanMS = latencySum / float64(m.runRequests)
	failed := float64(failedReqs)
	m.extra = append(m.extra,
		emitted{"serve.hit_capacity_rps", m.throughput, len(ph.samples)},
		emitted{"load.sent", float64(m.runRequests), int(m.runRequests)},
		emitted{"load.ok", float64(m.runRequests) - failed, int(m.runRequests)},
		emitted{"load.failed", failed, int(m.runRequests)},
		emitted{"load.rate_ok_rps", okRate, len(hotRungs)})
	if err := ow.close(&m); err != nil {
		return m, err
	}
	// What the wire, the kernel and the generator add to a hit: the
	// client's median minus the server's own mean.
	serverMeanUS := 1e6 * m.win.histMean("http_request_seconds", `route="run"`)
	m.extra = append(m.extra, emitted{"serve.wire_overhead_us", 1e3*m.p50MS - serverMeanUS, int(m.runRequests)})
	return m, nil
}

// --- serve_cold ---------------------------------------------------------

var (
	// Four algorithms the analytic surrogate models on a faulted mesh
	// (sweep.HybridSupported), so every 202 carries a model answer.
	coldAlgorithms = []string{"Duato", "NHop", "Pbc", "Minimal-Adaptive"}
	// Below the saturation knee of a 10x10 mesh with 5 faults.
	coldRates = []float64{0.0004, 0.0008, 0.0012}
)

const (
	coldGoldenCells = 800 // cells golden.json records; a run completes ~450
	coldRecheckNth  = 8   // every 8th iteration re-POSTs and expects a hit
)

// coldCell returns the i-th never-seen cell of a run.
func coldCell(cfg config, i int) sim.Params {
	p := sim.DefaultParams()
	p.Algorithm = coldAlgorithms[i%len(coldAlgorithms)]
	p.Rate = coldRates[(i/len(coldAlgorithms))%len(coldRates)]
	p.Faults, p.FaultSeed = 5, 1 // one fixed fault set: the seed varies traffic, not the mesh
	p.Seed = cfg.seed*1000000 + int64(i)
	p.WarmupCycles, p.MeasureCycles = int64(max(50, 1000/cfg.scale)), int64(max(50, 4000/cfg.scale))
	return p
}

func runServeCold(cfg config, res *results) error {
	bin, err := buildMeshserve(cfg)
	if err != nil {
		return err
	}
	chk, err := newChecker(cfg, res)
	if err != nil {
		return err
	}
	if cfg.updateGolden {
		// The golden comes from bare Runners in this process, not from
		// the server it will be used to check.
		pts := make([]sweep.Point, coldGoldenCells)
		for i := range pts {
			pts[i] = sweep.Point{Params: coldCell(cfg, i)}
		}
		for _, o := range sweep.Run(pts, sweepWorkers, nil) {
			chk.cell(o.Point.Params, o.Result.Stats, o.Err)
		}
		if err := chk.finish(cfg); err != nil {
			return err
		}
		// The run itself then checks the server against what was just
		// recorded.
		cfg.updateGolden = false
		if chk, err = newChecker(cfg, res); err != nil {
			return err
		}
	}
	length := time.Duration(cfg.seconds / float64(cfg.scale) * float64(time.Second))
	var tracer *trace.Tracer
	run := &serveRun{cfg: cfg, res: res, bin: bin}
	if cfg.trace {
		tracer = trace.New(16384)
		run.root = tracer.Start("serve_cold traced run", trace.Context{})
		length /= 2
	}

	// Set-up: one cell per algorithm, outside the timed range, so the
	// Runner pool is warm and each configuration class's surrogate
	// (a ~0.2 s table build on a faulted mesh) is memoised.
	setup := func(srv *server, c *client) error {
		return parallelDo(len(coldAlgorithms), func(i int, buf *bytes.Buffer) error {
			body := requestBody(coldCell(cfg, 900000+i))
			if r, err := c.post("/run", body, buf); err != nil || r.status != http.StatusAccepted {
				return fmt.Errorf("warm-up cell %d: status %d err %v", i, r.status, err)
			}
			if r, err := c.post("/run?wait=1", body, buf); err != nil || r.status != http.StatusOK {
				return fmt.Errorf("warm-up cell %d wait: status %d err %v", i, r.status, err)
			}
			return nil
		})
	}
	first, offset := 0, 0 // cells the untraced window took; cells taken so far
	window := func(srv *server, c *client, span *trace.Span) (serverMeasurement, error) {
		m, n, err := coldWindow(cfg, res, chk, srv, c, span, length, offset)
		if offset == 0 {
			first = n
		}
		offset += n // the traced server continues with unseen cells
		return m, err
	}
	plainArgs := []string{"-workers", "2", "-trace-spans", "-1"}
	reps := 3
	if cfg.trace {
		reps = 1
	}
	setups, plain, err := run.measureServer("untraced server", reps, plainArgs, setup, window)
	if err != nil {
		return err
	}
	emitServeEndToEnd(res, setups, plain)
	crossCheck(res, plain, int64(first))
	layers, distinct := plain, first

	// The same cells through a bare Runner in this process: the digest
	// the server must have reported (any seed), and in a traced run the
	// time the service adds on top of the simulation.
	bare := 8
	if cfg.trace {
		bare = 24
	}
	bare = min(bare, first)
	runner := sim.NewRunner()
	defer runner.Close()
	var bareMS []float64
	for i := 0; i < bare; i++ {
		p := coldCell(cfg, i)
		out, err := runner.Run(p)
		if err == nil {
			bareMS = append(bareMS, ms(out.Elapsed))
			if d := chk.got[cellKey(p)]; d != "" {
				var want string
				if want, err = metrics.DigestJSON(out.Stats); err == nil && want != d {
					err = fmt.Errorf("server reported %s for %s, a bare Runner computes %s", d, cellKey(p), want)
				}
			}
		}
		res.op(err)
	}

	if cfg.trace {
		tracedArgs := []string{"-workers", "2", "-trace-spans", tracedServerSpans}
		var traced serverMeasurement
		if _, traced, err = run.measureServer("traced server", 1, tracedArgs, setup, window); err != nil {
			return err
		}
		distinct = offset - first
		crossCheck(res, traced, int64(distinct))
		layers = traced
		res.emit("trace.overhead_pct", 100*(traced.p50MS/plain.p50MS-1), int(traced.deliveredOps))
		res.emit("serve.service_overhead_pct", 100*(plain.p50MS/median(bareMS)-1), len(bareMS))
		if err := serveProbes(cfg, res, run.root, coldCell(cfg, 0)); err != nil {
			return err
		}
		sp := run.root.Child("probe analytic")
		err := analyticProbes(res, coldCell(cfg, 0), nil)
		sp.End()
		if err != nil {
			return err
		}
	}
	emitServerLayers(res, layers, int64(distinct))
	if cfg.trace {
		run.root.End()
		if err := writeChrome(cfg, tracer, run.root.TraceID()); err != nil {
			return err
		}
	}
	return chk.finish(cfg)
}

// coldWindow is the timed part of serve_cold: two clients, each taking
// the next never-seen cell (numbered from offset) and asking for it
// three ways. It also returns how many cells it took.
func coldWindow(cfg config, res *results, chk *checker, srv *server, c *client, span *trace.Span,
	length time.Duration, offset int) (serverMeasurement, int, error) {
	var mu sync.Mutex
	var missMS, modelMS []float64
	var requests int64
	var latencySum float64
	var ids []string
	traced := span != nil

	send := func(i int, buf *bytes.Buffer) (string, error) {
		p := coldCell(cfg, offset+i)
		body := requestBody(p)
		var sent int64
		var sumMS float64
		defer func() {
			mu.Lock()
			requests += sent
			latencySum += sumMS
			mu.Unlock()
		}()

		// (a) a never-seen cell: 202 with the surrogate's answer.
		t0 := time.Now()
		ra, err := c.post("/run", body, buf)
		sent++
		if err != nil {
			return "", err
		}
		tA := time.Since(t0)
		sumMS += ms(tA)
		var acc struct {
			Model *struct {
				Provenance string `json:"provenance"`
			} `json:"model"`
		}
		if ra.status != http.StatusAccepted || json.Unmarshal(ra.body, &acc) != nil || acc.Model == nil || acc.Model.Provenance != "model" {
			return "", fmt.Errorf("cell %d (a): want 202 with provenance model, got %d: %.200s", i, ra.status, ra.body)
		}

		// (b) the same key, waiting: joins the in-flight job (or hits,
		// if the job already landed) and returns the exact result.
		t1 := time.Now()
		rb, err := c.post("/run?wait=1", body, buf)
		sent++
		if err != nil {
			return "", err
		}
		done := time.Now()
		sumMS += ms(done.Sub(t1))
		digest := entryDigest(rb.body)
		if rb.status != http.StatusOK || digest == "" {
			return "", fmt.Errorf("cell %d (b): want 200 with a result, got %d: %.200s", i, rb.status, rb.body)
		}
		mu.Lock()
		var gerr error
		if offset+i < coldGoldenCells {
			gerr = chk.digest(cellKey(p), digest)
		} else {
			chk.got[cellKey(p)] = digest
		}
		missMS = append(missMS, ms(done.Sub(t0)))
		modelMS = append(modelMS, ms(tA))
		if ra.traceID != "" && i%4 == 0 { // empty unless the server traces
			ids = append(ids, ra.traceID)
		}
		mu.Unlock()
		if gerr != nil {
			return "", gerr
		}
		if traced {
			s := span.ChildAt("cold cell (a)+(b)", t0)
			s.Set("server_trace_id", ra.traceID)
			s.EndAt(done)
		}

		// (c) now and then, ask again: must be a hit with the same result.
		if i%coldRecheckNth == 0 {
			t2 := time.Now()
			rc, err := c.post("/run", body, buf)
			sent++
			if err != nil {
				return "", err
			}
			sumMS += ms(time.Since(t2))
			if rc.status != http.StatusOK || rc.xcache != "hit" || entryDigest(rc.body) != digest {
				return "", fmt.Errorf("cell %d (c): want a hit with digest %s, got %d X-Cache %q", i, digest, rc.status, rc.xcache)
			}
		}
		return "", nil
	}

	var m serverMeasurement
	ow, err := openWindow(srv)
	if err != nil {
		return m, 0, err
	}
	ph := closedLoop(length, send)
	ph.tally(res)
	if err := srv.alive(); err != nil {
		return m, 0, err
	}
	iterations := len(ph.samples) + len(ph.failed)
	if len(missMS) == 0 {
		return m, 0, fmt.Errorf("no cold cell completed: %v", ph.failed)
	}
	p := coldCell(cfg, 0)
	m.simCycles = float64(p.WarmupCycles + p.MeasureCycles)
	m.runRequests = requests
	m.clientMeanMS = latencySum / float64(requests)
	m.p50MS, m.tailMS = percentile(missMS, 0.50), percentile(missMS, 0.95)
	m.throughput = float64(len(missMS)) / ph.wall.Seconds()
	m.deliveredOps = int64(len(missMS))
	m.traceIDs = ids
	m.extra = []emitted{
		{"serve.miss_cells_per_s", m.throughput, len(missMS)},
		{"serve.model_p50_ms", percentile(modelMS, 0.50), len(modelMS)},
		{"load.sent", float64(requests), int(requests)},
		{"load.ok", float64(requests) - float64(len(ph.failed)), int(requests)},
		{"load.failed", float64(len(ph.failed)), int(requests)},
	}
	return m, iterations, ow.close(&m)
}
