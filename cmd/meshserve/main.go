// Command meshserve runs the simulation service: an HTTP/JSON API over
// a content-addressed result cache and a worker fleet of pooled
// sim.Runners. Repeated parameter studies cost a cache lookup instead
// of a simulation; misses are deduplicated, queued with backpressure,
// and (where the analytic surrogate applies) answered instantly with a
// provenance-tagged model estimate while the exact result computes.
//
// Usage:
//
//	meshserve -addr :8080 -cache /var/cache/wormmesh
//
// Endpoints:
//
//	POST /run    {"params":{...},"wait":true}  one simulation cell
//	POST /sweep  {"base":{...},"algorithms":[...],"rates":[...]}
//	GET  /jobs/{key|sweep-id}                  job/sweep progress
//	GET  /jobs/{key}/live                      SSE window-telemetry stream
//	GET  /traces/{id}                          span tree for a request
//	GET  /traces/{id}.json                     Chrome trace JSON (Perfetto)
//	GET  /metrics, /debug/vars, /healthz, /readyz
//
// Every response carries an X-Trace-Id header; feed it to /traces to
// see where the request's time went. Logs are structured (slog); pick
// the format with -log-format. -pprof-addr exposes net/http/pprof on a
// separate listener for production profiling.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof-addr listener
	"os"
	"os/signal"
	"syscall"
	"time"

	"wormmesh/internal/metrics"
	"wormmesh/internal/serve"
)

func main() {
	var addr, cacheDir, logFormat, pprofAddr string
	var mem, workers, queue, maxRunners, traceSpans, engineEvents int
	var windowCycles int64
	flag.StringVar(&addr, "addr", ":8080", "listen address (use 127.0.0.1:0 for a kernel-assigned port)")
	flag.StringVar(&cacheDir, "cache", "", "disk store directory for cached results (empty = memory only)")
	flag.IntVar(&mem, "mem", 0, "in-memory cache entries (0 = 4096)")
	flag.IntVar(&workers, "workers", 0, "simulation workers (0 = NumCPU)")
	flag.IntVar(&queue, "queue", 0, "max queued jobs before 429 backpressure (0 = 256)")
	flag.IntVar(&maxRunners, "max-runners", 0, "warm Runners kept between jobs (0 = workers)")
	flag.IntVar(&traceSpans, "trace-spans", 0, "completed-span ring capacity (0 = 8192, negative = tracing off)")
	flag.IntVar(&engineEvents, "engine-events", 0, "per-job engine flight-recorder capacity (0 = 4096, negative = engine bridge off)")
	flag.Int64Var(&windowCycles, "window-cycles", 0, "live window-sampler width in cycles for /jobs/{key}/live (0 = 512, negative = window telemetry off)")
	flag.StringVar(&logFormat, "log-format", "text", "log format: text|json")
	flag.StringVar(&pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
	flag.Parse()

	var handler slog.Handler
	switch logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "meshserve: unknown -log-format %q (want text or json)\n", logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	reg := metrics.NewRegistry()
	srv, err := serve.New(serve.Config{
		Dir:          cacheDir,
		MemEntries:   mem,
		Workers:      workers,
		QueueDepth:   queue,
		MaxRunners:   maxRunners,
		Registry:     reg,
		Logger:       logger,
		TraceSpans:   traceSpans,
		EngineEvents: engineEvents,
		WindowCycles: windowCycles,
	})
	if err != nil {
		logger.Error("startup failed", "error", err)
		os.Exit(1)
	}
	reg.PublishExpvar()

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Error("listen failed", "addr", addr, "error", err)
		os.Exit(1)
	}
	// Startup banner. The url attribute is load-bearing: scripts that
	// start us on ":0" (the CI smoke test) parse the bound port out of
	// this line.
	logger.Info("listening",
		"url", fmt.Sprintf("http://%s", ln.Addr()),
		"store", cacheDir,
		"workers", workers,
		"queue_depth", queue,
		"cache_entries", mem,
		"log_format", logFormat)

	if pprofAddr != "" {
		go func() {
			logger.Info("pprof listening", "addr", pprofAddr)
			// DefaultServeMux carries the /debug/pprof handlers the
			// blank import registered; nothing else is mounted on it.
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				logger.Error("pprof listener failed", "error", err)
			}
		}()
	}

	httpSrv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Info("shutting down", "signal", s.String(), "in_flight", srv.InFlight())
		// Stop accepting requests, then drain: queued jobs run to
		// completion (Close waits on them), with progress logged so an
		// operator watching a long drain knows it is moving.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = httpSrv.Shutdown(ctx)
		cancel()
		drained := make(chan struct{})
		go func() { srv.Close(); close(drained) }()
		ticker := time.NewTicker(2 * time.Second)
		for {
			select {
			case <-drained:
				ticker.Stop()
				logger.Info("drained, exiting")
				return
			case <-ticker.C:
				logger.Info("draining", "in_flight", srv.InFlight())
			}
		}
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			logger.Error("server failed", "error", err)
			srv.Close()
			os.Exit(1)
		}
	}
}
