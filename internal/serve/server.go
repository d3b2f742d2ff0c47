package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"wormmesh/internal/analytic"
	"wormmesh/internal/core"
	"wormmesh/internal/metrics"
	"wormmesh/internal/sim"
	"wormmesh/internal/sweep"
	"wormmesh/internal/trace"
)

// Config tunes a Server.
type Config struct {
	// Dir, when non-empty, roots the disk store; empty = memory-only.
	Dir string
	// MemEntries bounds the in-memory LRU (4096 when 0).
	MemEntries int
	// Workers sizes the simulation fleet (NumCPU when 0).
	Workers int
	// QueueDepth bounds the miss queue; beyond it requests get 429
	// (256 when 0).
	QueueDepth int
	// MaxRunners caps warm Runners parked between jobs (Workers when 0).
	MaxRunners int
	// Registry, when non-nil, receives the serve counter set.
	Registry *metrics.Registry
	// Logger, when non-nil, receives the structured access and
	// job-lifecycle logs; nil discards them.
	Logger *slog.Logger
	// TraceSpans bounds the tracer's completed-span ring
	// (trace.DefaultCapacity when 0); negative disables tracing.
	TraceSpans int
	// EngineEvents sizes each job's span-scoped engine flight recorder
	// (core.DefaultFlightRecorderEvents when 0); negative disables the
	// engine bridge while keeping service spans.
	EngineEvents int
	// WindowCycles sets the width of each job's live window sampler in
	// cycles (core.DefaultWindowCycles when 0) — the time-resolved
	// series behind GET /jobs/{id}/live, the run-span counter tracks
	// and the measured per-run ETA. Negative disables window sampling.
	WindowCycles int64
}

// Server wires cache, scheduler and surrogate into an http.Handler.
type Server struct {
	cache   *Cache
	sched   *Scheduler
	met     *metrics.Server
	tracer  *trace.Tracer // nil = tracing disabled
	logger  *slog.Logger  // never nil (discard by default)
	started time.Time

	modelMu sync.Mutex
	models  map[string]cachedModel // key: config-class digest

	sweepMu  sync.Mutex
	sweeps   map[string]*sweepJob
	sweepLog []string // FIFO eviction

	mux *http.ServeMux
}

// cachedModel memoizes a built surrogate with its saturation knee:
// faulted table builds cost ~0.2s and the knee bisection runs 60
// Predicts, while a memoized Predict is microseconds — the difference
// between a <1ms fast path and a multi-ms one.
type cachedModel struct {
	model analytic.Model
	knee  float64
}

// sweepJob tracks one accepted sweep: the cells it expanded into and
// when it was accepted, so /jobs can report progress by counting cells
// present in the cache.
type sweepJob struct {
	ID       string
	Accepted time.Time
	Cells    []sweepCell
}

type sweepCell struct {
	Key       string
	Algorithm string
	Rate      float64
}

// maxTrackedSweeps bounds the sweep-status map.
const maxTrackedSweeps = 256

// New builds a Server. Close releases its workers and runners.
func New(cfg Config) (*Server, error) {
	var met *metrics.Server
	if cfg.Registry != nil {
		met = metrics.NewServer(cfg.Registry)
	}
	var store *Store
	if cfg.Dir != "" {
		var err error
		store, err = OpenStore(cfg.Dir)
		if err != nil {
			return nil, err
		}
	}
	cache := NewCache(cfg.MemEntries, store, met)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	maxRunners := cfg.MaxRunners
	if maxRunners <= 0 {
		maxRunners = workers
	}
	pool := sim.NewRunnerPool(maxRunners)
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	var tracer *trace.Tracer
	if cfg.TraceSpans >= 0 {
		capacity := cfg.TraceSpans
		if capacity == 0 {
			capacity = trace.DefaultCapacity
		}
		tracer = trace.New(capacity)
	}
	engineEvents := cfg.EngineEvents
	if engineEvents == 0 {
		engineEvents = core.DefaultFlightRecorderEvents
	}
	if engineEvents < 0 {
		engineEvents = 0
	}
	s := &Server{
		cache:   cache,
		sched:   NewScheduler(cache, workers, cfg.QueueDepth, pool, met),
		met:     met,
		tracer:  tracer,
		logger:  logger,
		started: time.Now(),
		models:  make(map[string]cachedModel),
		sweeps:  make(map[string]*sweepJob),
		mux:     http.NewServeMux(),
	}
	windowCycles := cfg.WindowCycles
	if windowCycles == 0 {
		windowCycles = core.DefaultWindowCycles
	}
	if windowCycles < 0 {
		windowCycles = 0
	}
	// Same-package wiring, before any Submit can reach a worker.
	s.sched.tracer = tracer
	s.sched.engineEvents = engineEvents
	s.sched.windowCycles = windowCycles
	s.sched.logger = logger
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/sweep", s.handleSweep)
	s.mux.HandleFunc("/jobs/", s.handleJob)
	s.mux.HandleFunc("/traces/", s.handleTrace)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	// Catch-all: unknown paths get the same JSON error envelope as
	// every other error in the service.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, r, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
	})
	return s, nil
}

// Handler returns the server's HTTP handler: the endpoint mux behind
// the observability middleware (root span, RED metrics, access log).
func (s *Server) Handler() http.Handler { return s.observe(s.mux) }

// Tracer exposes the span ring (for CLIs embedding the server and for
// tests); nil when tracing is disabled.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Cache exposes the result cache (for CLIs embedding the server).
func (s *Server) Cache() *Cache { return s.cache }

// Close drains the worker fleet.
func (s *Server) Close() { s.sched.Close() }

// InFlight reports jobs queued or running — what a graceful drain
// waits on.
func (s *Server) InFlight() int { return s.sched.InFlight() }

// ModelAnswer is the surrogate's provisional reply to a cache miss:
// tagged provenance "model" so clients can tell an analytic estimate
// (≤13.2% stable-region latency error) from exact simulation. The
// simulated entry replaces it when the job lands.
type ModelAnswer struct {
	Provenance string  `json:"provenance"` // always "model"
	Latency    Float   `json:"latency_cycles"`
	Accepted   Float   `json:"accepted_flits"`
	Normalized Float   `json:"normalized_throughput"`
	Knee       float64 `json:"knee_rate"`
	Saturated  bool    `json:"saturated"`
}

// runRequest is the POST /run body.
type runRequest struct {
	Params   sim.Params `json:"params"`
	Priority int        `json:"priority"`
	Wait     bool       `json:"wait"`
}

// runAccepted is the 202 body for a scheduled miss.
type runAccepted struct {
	Status    string       `json:"status"`
	Key       string       `json:"key"`
	StatusURL string       `json:"status_url"`
	Model     *ModelAnswer `json:"model,omitempty"`
}

// httpError writes the service's single error envelope:
// {"error": "...", "trace_id": "..."} — every failure path, any
// endpoint, carries the trace ID so a client error report points
// straight at its spans.
func httpError(w http.ResponseWriter, r *http.Request, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	env := map[string]string{"error": fmt.Sprintf(format, args...)}
	if span := spanFrom(r); span != nil {
		env["trace_id"] = span.TraceID().String()
	}
	json.NewEncoder(w).Encode(env)
}

// maxBodyBytes bounds a POST body; a larger one answers 413.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most
// maxBodyBytes. On failure it writes the error response (413 for an
// oversized body, 400 otherwise) and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, r, http.StatusRequestEntityTooLarge, "request body over %d bytes", maxBodyBytes)
	} else {
		httpError(w, r, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	span := spanFrom(r)
	if r.Method != http.MethodPost {
		httpError(w, r, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req runRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		req.Wait = true
	}
	ns := span.Child("normalize")
	key, np, err := Key(req.Params)
	if err != nil {
		ns.Set("error", err.Error())
		ns.End()
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	ns.Set("key", key)
	ns.End()
	if s.met != nil {
		s.met.Requests.Inc()
	}
	ls := span.Child("cache.lookup")
	body, tier, ok := s.cache.GetTagged(key)
	if ok {
		ls.Set("tier", tier)
	}
	ls.End()
	if ok {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "hit")
		w.Header().Set("X-Cache-Tier", tier)
		w.Write(body)
		return
	}
	job, joined, err := s.sched.Submit(key, np, req.Priority, span.Context())
	if err == ErrQueueFull {
		w.Header().Set("Retry-After", strconv.Itoa(s.sched.RetryAfterSeconds()))
		httpError(w, r, http.StatusTooManyRequests, "queue full, retry later")
		return
	}
	if err != nil {
		httpError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	if joined {
		// This request rides an earlier identical submission; its
		// stage spans live under that request's trace.
		span.Instant("singleflight.join", trace.Attr{Key: "key", Value: key})
	}
	if req.Wait {
		<-job.Done()
		_, body, err := job.Outcome()
		if err != nil {
			httpError(w, r, http.StatusInternalServerError, "simulation failed: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "miss")
		w.Write(body)
		return
	}
	ms := span.Child("model.answer")
	model := s.modelAnswer(np)
	ms.Set("applicable", model != nil)
	ms.End()
	resp := runAccepted{
		Status:    "pending",
		Key:       key,
		StatusURL: "/jobs/" + key,
		Model:     model,
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(resp)
}

// modelAnswer evaluates the analytic surrogate for a normalized cell,
// or nil where the model doesn't apply (torus, unmodeled algorithms).
// Models are memoized per configuration class — the Params with rate,
// seeds and cycle counts zeroed — because a faulted table build costs
// ~0.2s while a memoized Predict is microseconds, and every rate on one
// curve shares a class.
func (s *Server) modelAnswer(np sim.Params) *ModelAnswer {
	if sweep.HybridSupported(np) != nil {
		return nil
	}
	class := np
	class.Rate = 0
	class.Seed = 0
	class.WarmupCycles = 0
	class.MeasureCycles = 0
	classKey, err := metrics.CanonicalDigest(class)
	if err != nil {
		return nil
	}
	s.modelMu.Lock()
	cm, ok := s.models[classKey]
	s.modelMu.Unlock()
	if !ok {
		model, err := sweep.Surrogate(np)
		if err != nil {
			return nil
		}
		cm = cachedModel{model: model, knee: model.SaturationRate()}
		s.modelMu.Lock()
		s.models[classKey] = cm
		s.modelMu.Unlock()
	}
	model, knee := cm.model, cm.knee
	ans := &ModelAnswer{Provenance: "model", Knee: knee}
	if pred, err := model.Predict(np.Rate); err == nil {
		ans.Latency = Float(pred.Latency)
		ans.Accepted = Float(np.Rate * float64(np.MessageLength))
	} else {
		// Beyond the stability region: the curve has flattened at the
		// knee's accepted load; latency diverges and is reported null.
		ans.Saturated = true
		ans.Latency = Float(nan())
		ans.Accepted = Float(knee * float64(np.MessageLength))
	}
	ans.Normalized = Float(float64(ans.Accepted) / meshCapacity(np))
	if s.met != nil {
		s.met.ModelAnswers.Inc()
	}
	return ans
}

// meshCapacity mirrors sim.Result.NormalizedThroughput's denominator
// for model answers (the surrogate is mesh-only, so no torus factor).
func meshCapacity(p sim.Params) float64 {
	minDim := p.Width
	if p.Height < minDim {
		minDim = p.Height
	}
	return 4 * float64(minDim) / float64(p.Width*p.Height)
}

func nan() float64 { var z float64; return z / z }

// sweepRequest is the POST /sweep body: a base cell expanded over
// algorithms × rates.
type sweepRequest struct {
	Base       sim.Params `json:"base"`
	Algorithms []string   `json:"algorithms"`
	Rates      []float64  `json:"rates"`
	Priority   int        `json:"priority"`
	Wait       bool       `json:"wait"`
}

// sweepCellStatus is one cell of a sweep response.
type sweepCellStatus struct {
	Algorithm  string       `json:"algorithm"`
	Rate       float64      `json:"rate"`
	Key        string       `json:"key"`
	Provenance string       `json:"provenance"` // simulated | model | pending
	Result     *Entry       `json:"result,omitempty"`
	Model      *ModelAnswer `json:"model,omitempty"`
}

// sweepResponse is the POST /sweep and GET /jobs/{sweep} body.
type sweepResponse struct {
	Status     string            `json:"status"` // done | pending
	ID         string            `json:"id"`
	StatusURL  string            `json:"status_url"`
	Done       int               `json:"done"`
	Total      int               `json:"total"`
	EtaSeconds Float             `json:"eta_seconds,omitempty"`
	Cells      []sweepCellStatus `json:"cells"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	span := spanFrom(r)
	if r.Method != http.MethodPost {
		httpError(w, r, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req sweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		req.Wait = true
	}
	if len(req.Algorithms) == 0 {
		req.Algorithms = []string{req.Base.Algorithm}
	}
	if len(req.Rates) == 0 {
		if req.Base.Rate > 0 {
			req.Rates = []float64{req.Base.Rate}
		} else {
			httpError(w, r, http.StatusBadRequest, "no rates given")
			return
		}
	}

	// Expand the grid: one content-addressed cell per algorithm × rate.
	es := span.Child("expand")
	var plans []cellPlan
	for _, alg := range req.Algorithms {
		for _, rate := range req.Rates {
			p := req.Base
			if alg != "" {
				p.Algorithm = alg
			}
			p.Rate = rate
			key, np, err := Key(p)
			if err != nil {
				es.End()
				httpError(w, r, http.StatusBadRequest, "cell %s@%g: %v", alg, rate, err)
				return
			}
			plans = append(plans, cellPlan{
				cell: sweepCell{Key: key, Algorithm: np.Algorithm, Rate: rate},
				np:   np,
			})
		}
	}
	es.Set("cells", len(plans))
	es.End()
	keys := make([]string, len(plans))
	for i, pl := range plans {
		keys[i] = pl.cell.Key
	}
	id, err := metrics.DigestJSON(keys)
	if err != nil {
		httpError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	id = strings.ReplaceAll(id, ":", "-")
	span.Set("sweep_id", id)

	// Schedule every cold cell; cached cells answer immediately.
	resp := sweepResponse{ID: id, StatusURL: "/jobs/" + id, Total: len(plans)}
	for i := range plans {
		pl := &plans[i]
		if s.met != nil {
			s.met.Requests.Inc()
		}
		cs := span.Child("cell")
		cs.Set("key", pl.cell.Key)
		cs.Set("algorithm", pl.cell.Algorithm)
		cs.Set("rate", pl.cell.Rate)
		if entry, tier, ok := s.cache.Get(pl.cell.Key); ok {
			cs.Set("tier", tier)
			cs.End()
			resp.Cells = append(resp.Cells, sweepCellStatus{
				Algorithm: pl.cell.Algorithm, Rate: pl.cell.Rate, Key: pl.cell.Key,
				Provenance: entry.Provenance, Result: entry,
			})
			resp.Done++
			continue
		}
		job, joined, err := s.sched.Submit(pl.cell.Key, pl.np, req.Priority, span.Context())
		if err == ErrQueueFull {
			cs.Set("error", "queue full")
			cs.End()
			w.Header().Set("Retry-After", strconv.Itoa(s.sched.RetryAfterSeconds()))
			httpError(w, r, http.StatusTooManyRequests, "queue full after %d cells, retry later", i)
			return
		}
		if err != nil {
			cs.End()
			httpError(w, r, http.StatusInternalServerError, "%v", err)
			return
		}
		if joined {
			cs.Instant("singleflight.join")
		}
		pl.job = job
		st := sweepCellStatus{
			Algorithm: pl.cell.Algorithm, Rate: pl.cell.Rate, Key: pl.cell.Key,
			Provenance: "pending",
		}
		// The surrogate fast path: misses answer instantly from the
		// analytic model where it applies, tagged so nobody mistakes an
		// estimate for a measurement.
		if m := s.modelAnswer(pl.np); m != nil {
			st.Provenance = m.Provenance
			st.Model = m
		}
		cs.Set("provenance", st.Provenance)
		cs.End()
		resp.Cells = append(resp.Cells, st)
	}

	cells := make([]sweepCell, len(plans))
	for i, pl := range plans {
		cells[i] = pl.cell
	}
	s.trackSweep(&sweepJob{ID: id, Accepted: time.Now(), Cells: cells})

	if req.Wait {
		for i := range plans {
			if plans[i].job == nil {
				continue
			}
			<-plans[i].job.Done()
			entry, _, err := plans[i].job.Outcome()
			if err != nil {
				httpError(w, r, http.StatusInternalServerError, "cell %s: %v", plans[i].cell.Key, err)
				return
			}
			resp.Cells[i] = sweepCellStatus{
				Algorithm: plans[i].cell.Algorithm, Rate: plans[i].cell.Rate, Key: plans[i].cell.Key,
				Provenance: entry.Provenance, Result: entry,
			}
			resp.Done++
		}
	}

	resp.Status = "pending"
	if resp.Done == resp.Total {
		resp.Status = "done"
	}
	w.Header().Set("Content-Type", "application/json")
	if resp.Status != "done" {
		w.WriteHeader(http.StatusAccepted)
	}
	json.NewEncoder(w).Encode(resp)
}

// cellPlan is one expanded sweep cell during handleSweep.
type cellPlan struct {
	cell sweepCell
	np   sim.Params
	job  *Job
}

func (s *Server) trackSweep(j *sweepJob) {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	if _, ok := s.sweeps[j.ID]; !ok {
		s.sweepLog = append(s.sweepLog, j.ID)
		for len(s.sweepLog) > maxTrackedSweeps {
			old := s.sweepLog[0]
			s.sweepLog = s.sweepLog[1:]
			delete(s.sweeps, old)
		}
	}
	s.sweeps[j.ID] = j
}

// runStatus is the GET /jobs/{key} body for single-run jobs.
type runStatus struct {
	Status         string `json:"status"`
	Key            string `json:"key"`
	Result         *Entry `json:"result,omitempty"`
	Error          string `json:"error,omitempty"`
	ElapsedSeconds Float  `json:"elapsed_seconds,omitempty"`
	// Progress from the job's window sampler, present while running
	// with window telemetry on: the last completed window's cycle, the
	// run's planned total, and an ETA extrapolated from the measured
	// wall rate of the window series — not the scheduler's coarse
	// duration EWMA.
	Cycle       int64 `json:"cycle,omitempty"`
	TotalCycles int64 `json:"total_cycles,omitempty"`
	EtaSeconds  Float `json:"eta_seconds,omitempty"`
}

// samplerProgress fills st's progress fields from a running job's
// window series: cycles-per-nanosecond measured over the sampled span
// prices the remaining cycles.
func samplerProgress(job *Job, st *runStatus) {
	smp := job.Sampler()
	if smp == nil {
		return
	}
	last, ok := smp.Latest()
	if !ok {
		return
	}
	meta := smp.Meta()
	st.Cycle = last.End
	st.TotalCycles = meta.TotalCycles
	progressed := last.End - meta.StartCycle
	elapsed := last.WallNanos - meta.WallStart
	if progressed > 0 && elapsed > 0 && meta.TotalCycles > last.End {
		nsPerCycle := float64(elapsed) / float64(progressed)
		st.EtaSeconds = Float(float64(meta.TotalCycles-last.End) * nsPerCycle / 1e9)
	}
}

// handleJob reports progress for a run key or a sweep ID — the per-job
// generalization of the metrics.Sweep ETA: eta = elapsed/done·(total−done)
// over the cells that belong to this job.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	if key, ok := strings.CutSuffix(id, "/live"); ok {
		s.handleJobLive(w, r, key)
		return
	}
	w.Header().Set("Content-Type", "application/json")

	s.sweepMu.Lock()
	sj := s.sweeps[id]
	s.sweepMu.Unlock()
	if sj != nil {
		resp := sweepResponse{ID: id, StatusURL: "/jobs/" + id, Total: len(sj.Cells)}
		for _, c := range sj.Cells {
			st := sweepCellStatus{Algorithm: c.Algorithm, Rate: c.Rate, Key: c.Key, Provenance: "pending"}
			// peek, not Get: polling must not skew hit/miss statistics.
			if entry := s.cache.peek(c.Key); entry != nil {
				st.Provenance = entry.Provenance
				st.Result = entry
				resp.Done++
			} else if s.cache.Has(c.Key) {
				resp.Done++ // on disk, not yet promoted
			}
			resp.Cells = append(resp.Cells, st)
		}
		resp.Status = "pending"
		if resp.Done == resp.Total {
			resp.Status = "done"
		} else if resp.Done > 0 {
			elapsed := time.Since(sj.Accepted).Seconds()
			resp.EtaSeconds = Float(elapsed / float64(resp.Done) * float64(resp.Total-resp.Done))
		}
		json.NewEncoder(w).Encode(resp)
		return
	}

	if entry, _, ok := s.cache.Get(id); ok {
		json.NewEncoder(w).Encode(runStatus{Status: "done", Key: id, Result: entry})
		return
	}
	if job := s.sched.Job(id); job != nil {
		st := runStatus{Key: id, Status: job.State().String()}
		if _, _, err := job.Outcome(); err != nil && job.State() == JobFailed {
			st.Error = err.Error()
		}
		job.mu.Lock()
		if !job.started.IsZero() {
			st.ElapsedSeconds = Float(time.Since(job.started).Seconds())
		}
		job.mu.Unlock()
		samplerProgress(job, &st)
		json.NewEncoder(w).Encode(st)
		return
	}
	httpError(w, r, http.StatusNotFound, "no such job %q", id)
}
