package metrics

// Server is the meshserve metric set: the request/cache/queue counters
// the sweep-as-a-service layer (internal/serve) publishes on its
// registry, plus the RED layer (Rate, Errors, Duration) that makes the
// service dashboardable: per-route request and error counters, log₂
// latency histograms for requests, cache lookups, queue waits and
// simulation runs, and occupancy gauges. Handlers and the scheduler
// update these from many goroutines; every member is an atomic counter,
// gauge or lock-free histogram, so no extra locking is needed and the
// warm-hit path stays allocation-free.
type Server struct {
	Requests     *Counter // simulation cells requested (runs + sweep cells)
	CacheHits    *Counter // cells answered from the cache (memory or disk)
	DiskHits     *Counter // the subset of hits that came off the disk store
	CacheMisses  *Counter // cells that needed a simulation
	Deduplicated *Counter // misses that joined an already in-flight job
	Rejected     *Counter // submissions refused by queue backpressure (HTTP 429)
	ModelAnswers *Counter // misses answered provisionally by the analytic surrogate
	ModelBuilds  *Counter // surrogates built, one per configuration class
	Simulations  *Counter // simulations the worker fleet completed
	QueueDepth   *Gauge   // jobs waiting for a worker
	Running      *Gauge   // jobs currently simulating

	// RED: per-route rate/error counters and duration histograms. Routes
	// are a fixed vocabulary (see ServeRoutes); anything else lands in
	// "other" so cardinality stays bounded.
	HTTPRequests map[string]*Counter   // wormmesh_serve_http_requests_total{route=...}
	HTTPErrors   map[string]*Counter   // wormmesh_serve_http_errors_total{route=...} (5xx)
	HTTPSeconds  map[string]*Histogram // wormmesh_serve_http_request_seconds{route=...}

	LookupMemSeconds  *Histogram // cache lookup latency, memory tier
	LookupDiskSeconds *Histogram // cache lookup latency, disk tier
	QueueWaitSeconds  *Histogram // submit -> worker pickup
	RunSeconds        *Histogram // simulation wall time per job
	RunnersWarm       *Gauge     // warm runners idle in the pool
}

// ServeRoutes is the fixed route vocabulary of the RED series, matching
// the meshserve endpoint set. "other" absorbs unknown paths.
var ServeRoutes = []string{"run", "sweep", "jobs", "traces", "metrics", "healthz", "readyz", "other"}

// NewServer registers the serve metric set on r.
func NewServer(r *Registry) *Server {
	s := &Server{
		Requests:     r.NewCounter("wormmesh_serve_requests_total", "Simulation cells requested (runs plus sweep cells)."),
		CacheHits:    r.NewCounter("wormmesh_serve_cache_hits_total", "Cells answered from the result cache (memory or disk)."),
		DiskHits:     r.NewCounter("wormmesh_serve_cache_disk_hits_total", "Cache hits served from the disk store (subset of hits)."),
		CacheMisses:  r.NewCounter("wormmesh_serve_cache_misses_total", "Cells not in the cache when requested."),
		Deduplicated: r.NewCounter("wormmesh_serve_deduplicated_total", "Misses that joined an identical in-flight job instead of enqueueing."),
		Rejected:     r.NewCounter("wormmesh_serve_rejected_total", "Submissions refused by queue backpressure (HTTP 429)."),
		ModelAnswers: r.NewCounter("wormmesh_serve_model_answers_total", "Misses answered provisionally by the analytic surrogate."),
		ModelBuilds:  r.NewCounter("wormmesh_serve_model_builds_total", "Analytic surrogates built, one per configuration class."),
		Simulations:  r.NewCounter("wormmesh_serve_simulations_total", "Simulations completed by the worker fleet."),
		QueueDepth:   r.NewGauge("wormmesh_serve_queue_depth", "Jobs waiting for a worker."),
		Running:      r.NewGauge("wormmesh_serve_jobs_running", "Jobs currently simulating."),

		HTTPRequests: map[string]*Counter{},
		HTTPErrors:   map[string]*Counter{},
		HTTPSeconds:  map[string]*Histogram{},

		LookupMemSeconds:  r.NewHistogram("wormmesh_serve_lookup_seconds", `tier="memory"`, "Cache lookup latency by tier."),
		LookupDiskSeconds: r.NewHistogram("wormmesh_serve_lookup_seconds", `tier="disk"`, "Cache lookup latency by tier."),
		QueueWaitSeconds:  r.NewHistogram("wormmesh_serve_queue_wait_seconds", "", "Time a job waits between submission and worker pickup."),
		RunSeconds:        r.NewHistogram("wormmesh_serve_run_seconds", "", "Simulation wall time per completed job."),
		RunnersWarm:       r.NewGauge("wormmesh_serve_runners_warm", "Warm runners idle in the pool."),
	}
	for _, route := range ServeRoutes {
		label := `route="` + route + `"`
		s.HTTPRequests[route] = r.NewLabeledCounter("wormmesh_serve_http_requests_total", label, "HTTP requests by route.")
		s.HTTPErrors[route] = r.NewLabeledCounter("wormmesh_serve_http_errors_total", label, "HTTP responses with a 5xx status, by route.")
		s.HTTPSeconds[route] = r.NewHistogram("wormmesh_serve_http_request_seconds", label, "HTTP request latency by route.")
	}
	return s
}

// ObserveHTTP records one completed HTTP request in the RED series.
// Unknown routes collapse into "other"; errors are 5xx only (4xx is the
// client's problem, not the service's).
func (s *Server) ObserveHTTP(route string, code int, seconds float64) {
	if _, ok := s.HTTPRequests[route]; !ok {
		route = "other"
	}
	s.HTTPRequests[route].Inc()
	if code >= 500 {
		s.HTTPErrors[route].Inc()
	}
	s.HTTPSeconds[route].Observe(seconds)
}
