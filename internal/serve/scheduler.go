package serve

import (
	"container/heap"
	"errors"
	"log/slog"
	"math"
	"sync"
	"time"

	"wormmesh/internal/core"
	"wormmesh/internal/metrics"
	"wormmesh/internal/sim"
	"wormmesh/internal/trace"
)

// ErrQueueFull is returned by Submit when backpressure rejects the
// request; handlers translate it to 429 + Retry-After.
var ErrQueueFull = errors.New("serve: job queue full")

// JobState is a job's position in its lifecycle.
type JobState int32

const (
	JobQueued JobState = iota
	JobRunning
	JobDone
	JobFailed
)

// String names the state for JSON status payloads.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	}
	return "unknown"
}

// Job is one in-flight simulation: the singleflight rendezvous for
// every request that asked for the same key. Wait on Done(); after it
// closes, Entry/Body/Err are immutable.
type Job struct {
	Key      string
	Params   sim.Params // normalized
	Priority int
	Created  time.Time

	seq   int64 // FIFO tiebreak within a priority
	index int   // heap position; -1 once dequeued

	// trace is the submitting request's span context: the parent under
	// which the worker backfills queue.wait/run/store.write spans. The
	// first submitter owns the job, so joiners' stage spans land under
	// that request's trace (joiners record a singleflight.join instant
	// of their own instead).
	trace trace.Context

	mu      sync.Mutex
	state   JobState
	started time.Time
	sampler *core.WindowSampler // non-nil once running, when enabled
	entry   *Entry
	body    []byte
	err     error
	done    chan struct{}
}

// Done is closed when the job finishes (either way).
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current lifecycle position.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Outcome returns the result after Done() closed.
func (j *Job) Outcome() (*Entry, []byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.entry, j.body, j.err
}

// Sampler returns the job's window sampler: non-nil from the moment
// the job starts running (when the scheduler has window telemetry
// enabled), and retained after completion so late readers can replay
// the whole series. Safe to read concurrently with the run — the
// sampler is its own synchronization domain.
func (j *Job) Sampler() *core.WindowSampler {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sampler
}

// jobQueue is a max-heap on Priority, FIFO (by seq) within a priority.
type jobQueue []*Job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, j int) bool {
	if q[i].Priority != q[j].Priority {
		return q[i].Priority > q[j].Priority
	}
	return q[i].seq < q[j].seq
}
func (q jobQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *jobQueue) Push(x any) {
	j := x.(*Job)
	j.index = len(*q)
	*q = append(*q, j)
}
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.index = -1
	*q = old[:n-1]
	return j
}

// Scheduler owns the worker fleet: a bounded priority queue of cache
// misses, singleflight deduplication (one Job per key, later identical
// requests join it), and an EWMA of job durations that prices the
// Retry-After header when the queue rejects work.
type Scheduler struct {
	cache   *Cache
	met     *metrics.Server // nil ok
	pool    *sim.RunnerPool
	workers int
	maxQ    int

	// run executes one simulation; injectable so tests can count or
	// block executions without paying for real runs.
	run func(*sim.Runner, sim.Params) (sim.Result, error)

	// Observability, filled in by Server.New right after construction
	// (before any Submit, so workers — which only read these while
	// holding a job — always see the final values). tracer nil disables
	// span backfill; engineEvents 0 disables the per-job flight
	// recorder; logger is never nil (discard by default).
	tracer       *trace.Tracer
	engineEvents int
	windowCycles int64 // per-job WindowSampler window; 0 disables
	logger       *slog.Logger

	mu         sync.Mutex
	cond       *sync.Cond
	queue      jobQueue
	jobs       map[string]*Job // queued or running, by key
	retired    map[string]*Job // recently failed, for status endpoints
	retireRing []string        // FIFO eviction of retired
	seq        int64
	avgSecs    float64 // EWMA of completed job durations
	closed     bool

	wg sync.WaitGroup
}

// retiredJobs bounds how many failed jobs stay queryable.
const retiredJobs = 1024

// NewScheduler starts `workers` goroutines draining a queue bounded at
// maxQueue (256 when <= 0). Completed jobs are filed into cache; the
// pool bounds how many Runners stay warm between jobs.
func NewScheduler(cache *Cache, workers, maxQueue int, pool *sim.RunnerPool, met *metrics.Server) *Scheduler {
	if workers <= 0 {
		workers = 1
	}
	if maxQueue <= 0 {
		maxQueue = 256
	}
	if pool == nil {
		pool = sim.NewRunnerPool(workers)
	}
	s := &Scheduler{
		cache:   cache,
		met:     met,
		pool:    pool,
		workers: workers,
		maxQ:    maxQueue,
		run:     func(r *sim.Runner, p sim.Params) (sim.Result, error) { return r.Run(p) },
		jobs:    make(map[string]*Job),
		retired: make(map[string]*Job),
		logger:  slog.New(slog.DiscardHandler),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit schedules a simulation for key (already normalized Params).
// If an identical job is queued or running, that job is returned with
// joined=true and nothing is enqueued — the singleflight guarantee that
// N concurrent misses on one key cost one simulation. A full queue
// returns ErrQueueFull. tc is the submitting request's trace context;
// the worker backfills the job's queue.wait/run/store.write spans under
// it (pass the zero Context for untraced submissions).
func (s *Scheduler) Submit(key string, np sim.Params, priority int, tc trace.Context) (*Job, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, errors.New("serve: scheduler closed")
	}
	if j, ok := s.jobs[key]; ok {
		if s.met != nil {
			s.met.Deduplicated.Inc()
		}
		return j, true, nil
	}
	if len(s.queue) >= s.maxQ {
		if s.met != nil {
			s.met.Rejected.Inc()
		}
		return nil, false, ErrQueueFull
	}
	s.seq++
	j := &Job{
		Key:      key,
		Params:   np,
		Priority: priority,
		Created:  time.Now(),
		seq:      s.seq,
		trace:    tc,
		done:     make(chan struct{}),
	}
	s.jobs[key] = j
	heap.Push(&s.queue, j)
	if s.met != nil {
		s.met.QueueDepth.Set(int64(len(s.queue)))
	}
	delete(s.retired, key) // a resubmit supersedes an old failure
	s.cond.Signal()
	return j, false, nil
}

// Job returns the queued/running job for key, or a recently failed one,
// or nil.
func (s *Scheduler) Job(key string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[key]; ok {
		return j
	}
	return s.retired[key]
}

// QueueDepth returns how many jobs are waiting for a worker.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// InFlight returns how many jobs are queued or running — the number a
// graceful drain waits on, and what /readyz reports.
func (s *Scheduler) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// Ready reports whether the scheduler is accepting submissions (it
// stops at Close); /readyz treats a closed scheduler as not ready.
func (s *Scheduler) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// RetryAfterSeconds prices a 429: the estimated time for the current
// backlog to drain one slot, from the duration EWMA. Clamped to
// [1, 600] so a cold server still returns something sane.
func (s *Scheduler) RetryAfterSeconds() int {
	s.mu.Lock()
	avg := s.avgSecs
	depth := len(s.queue)
	s.mu.Unlock()
	if avg <= 0 {
		avg = 1
	}
	secs := int(math.Ceil(avg * float64(depth+1) / float64(s.workers)))
	if secs < 1 {
		secs = 1
	}
	if secs > 600 {
		secs = 600
	}
	return secs
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed && len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.queue).(*Job)
		depth := len(s.queue)
		if s.met != nil {
			s.met.QueueDepth.Set(int64(depth))
			s.met.Running.Add(1)
		}
		s.mu.Unlock()

		now := time.Now()
		j.mu.Lock()
		j.state = JobRunning
		j.started = now
		j.mu.Unlock()

		// Backfill the queue-wait span — submission to pickup — under
		// the submitting request, now that both endpoints are known.
		traced := s.tracer != nil && j.trace.Valid()
		if traced {
			qw := s.tracer.StartAt("queue.wait", j.trace, j.Created)
			qw.Set("queue_depth", depth)
			qw.EndAt(now)
		}
		wait := now.Sub(j.Created)
		if s.met != nil {
			s.met.QueueWaitSeconds.Observe(wait.Seconds())
		}
		s.logger.Info("job start",
			"key", j.Key, "trace_id", j.trace.Trace.String(),
			"algorithm", j.Params.Algorithm, "rate", j.Params.Rate,
			"queue_wait_s", wait.Seconds(), "queue_depth", depth)

		var runSpan *trace.Span
		if traced {
			runSpan = s.tracer.StartAt("run", j.trace, now)
			runSpan.Set("key", j.Key)
			runSpan.Set("algorithm", j.Params.Algorithm)
			runSpan.Set("rate", j.Params.Rate)
		}
		// The engine bridge: the job runs a COPY of its normalized
		// Params carrying a private flight recorder, so the recorded
		// run stays bit-identical to the unrecorded one (observers
		// never touch Stats or RNG) and — critically — NewEntry below
		// files the CLEAN j.Params, keeping the cache-key contract
		// (Normalize strips FlightRecorder) intact.
		rp := j.Params
		var rec *core.FlightRecorder
		if runSpan != nil && s.engineEvents > 0 {
			rec = core.NewFlightRecorder(s.engineEvents)
			rp.FlightRecorder = rec
		}
		// The window bridge works the same way: a private sampler rides
		// the copied Params so /jobs/{key}/live can stream the run's
		// time-resolved series while it executes, without entering the
		// cache key (Normalize strips Sampler).
		var sampler *core.WindowSampler
		if s.windowCycles > 0 {
			capacity := int((rp.WarmupCycles+rp.MeasureCycles)/s.windowCycles) + 2
			sampler = core.NewWindowSampler(s.windowCycles, capacity)
			rp.Sampler = sampler
			j.mu.Lock()
			j.sampler = sampler
			j.mu.Unlock()
		}
		runner := s.pool.Get()
		res, err := s.run(runner, rp)
		s.pool.Put(runner)
		if s.met != nil {
			s.met.RunnersWarm.Set(int64(s.pool.Idle()))
			s.met.RunSeconds.Observe(time.Since(now).Seconds())
		}
		if rec != nil {
			runSpan.Set("engine_events", rec.Total())
			runSpan.AttachEngine(rec.Snapshot())
		}
		if sampler != nil && runSpan != nil {
			runSpan.Set("windows", sampler.Seq())
			runSpan.AttachWindows(WindowPoints(sampler))
		}
		if err != nil {
			runSpan.Set("error", err.Error())
		}
		runSpan.End()

		var entry *Entry
		var body []byte
		if err == nil {
			var sw *trace.Span
			if traced {
				sw = s.tracer.Start("store.write", j.trace)
			}
			entry, err = NewEntry(j.Key, j.Params, res)
			if err == nil {
				body, err = s.cache.Put(entry)
			}
			sw.End()
		}

		elapsed := time.Since(j.started).Seconds()
		if err != nil {
			s.logger.Error("job failed",
				"key", j.Key, "trace_id", j.trace.Trace.String(),
				"elapsed_s", elapsed, "error", err)
		} else {
			s.logger.Info("job done",
				"key", j.Key, "trace_id", j.trace.Trace.String(),
				"elapsed_s", elapsed, "result_digest", entry.ResultDigest)
		}
		// Finish the job's bookkeeping before releasing its waiters: a
		// client holding the result finds the job counted and out of
		// the in-flight table.
		s.mu.Lock()
		delete(s.jobs, j.Key)
		if err != nil {
			s.retire(j)
		}
		const ewma = 0.2
		if s.avgSecs == 0 {
			s.avgSecs = elapsed
		} else {
			s.avgSecs = (1-ewma)*s.avgSecs + ewma*elapsed
		}
		if s.met != nil {
			s.met.Running.Add(-1)
			if err == nil {
				s.met.Simulations.Inc()
			}
		}
		s.mu.Unlock()

		j.mu.Lock()
		if err != nil {
			j.state = JobFailed
			j.err = err
		} else {
			j.state = JobDone
			j.entry, j.body = entry, body
		}
		close(j.done)
		j.mu.Unlock()
	}
}

// WindowPoints converts a sampler's retained series into the trace
// layer's dependency-free mirror (internal/trace imports no engine
// package), deriving each window's normalized throughput from the
// sampler's healthy-node count.
func WindowPoints(s *core.WindowSampler) []trace.WindowPoint {
	snaps := s.Since(0)
	if len(snaps) == 0 {
		return nil
	}
	healthy := s.Meta().HealthyNodes
	out := make([]trace.WindowPoint, len(snaps))
	for i := range snaps {
		w := &snaps[i]
		out[i] = trace.WindowPoint{
			Seq: w.Seq, Start: w.Start, End: w.End,
			Generated: w.Generated, Delivered: w.Delivered,
			DeliveredFlits: w.DeliveredFlits, Killed: w.Killed,
			InFlight: w.InFlight, BlockedLinks: w.BlockedLinks,
			AvgLatency: w.AvgLatency, Throughput: w.Throughput(healthy),
		}
	}
	return out
}

// retire files a failed job for later status queries (caller holds mu).
func (s *Scheduler) retire(j *Job) {
	s.retired[j.Key] = j
	s.retireRing = append(s.retireRing, j.Key)
	for len(s.retireRing) > retiredJobs {
		old := s.retireRing[0]
		s.retireRing = s.retireRing[1:]
		if s.retired[old] != j {
			delete(s.retired, old)
		}
	}
}

// Close drains the queue, waits for in-flight jobs, and releases the
// Runner pool. Jobs still queued run to completion first.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.pool.Close()
}
