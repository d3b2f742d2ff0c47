package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"wormmesh/internal/trace"
)

// Request observability: the middleware that opens one root span per
// HTTP request (honoring an incoming Traceparent header), stamps the
// trace ID onto the response, feeds the RED metrics and the structured
// access log, plus the /traces endpoints that render a finished trace
// as a span tree or as Chrome trace-event JSON for Perfetto.

// spanKey carries the request's root span through the request context.
type spanKey struct{}

// spanFrom returns the request's root span, or nil when tracing is off.
// Span methods are nil-safe, so call sites need no guards.
func spanFrom(r *http.Request) *trace.Span {
	s, _ := r.Context().Value(spanKey{}).(*trace.Span)
	return s
}

// routeOf classifies a path into the RED metrics' fixed route
// vocabulary (bounded label cardinality — arbitrary paths collapse
// into "other").
func routeOf(path string) string {
	switch {
	case path == "/run":
		return "run"
	case path == "/sweep":
		return "sweep"
	case strings.HasPrefix(path, "/jobs/"):
		return "jobs"
	case strings.HasPrefix(path, "/traces/"):
		return "traces"
	case path == "/healthz":
		return "healthz"
	case path == "/readyz":
		return "readyz"
	case path == "/metrics":
		return "metrics"
	}
	return "other"
}

// statusWriter captures the response status for the span, the RED
// error counter and the access log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards http.Flusher through the wrapper so streaming
// handlers (the SSE live stream) can push partial responses.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// observe wraps the mux: root span per request (child of an incoming
// Traceparent, if any), X-Trace-Id/Traceparent response headers, RED
// observation and one structured access-log line per request.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		route := routeOf(r.URL.Path)
		var span *trace.Span
		var traceID string
		if s.tracer != nil {
			parent, _ := trace.ParseTraceparent(r.Header.Get("Traceparent"))
			span = s.tracer.StartAt("HTTP "+r.Method+" "+r.URL.Path, parent, start)
			span.Set("route", route)
			traceID = span.TraceID().String()
			w.Header().Set("X-Trace-Id", traceID)
			w.Header().Set("Traceparent", span.Context().Traceparent())
			r = r.WithContext(context.WithValue(r.Context(), spanKey{}, span))
		}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		elapsed := time.Since(start)
		span.Set("status", code)
		span.End()
		if s.met != nil {
			s.met.ObserveHTTP(route, code, elapsed.Seconds())
		}
		attrs := []any{
			"method", r.Method, "path", r.URL.Path, "route", route,
			"status", code, "elapsed_s", elapsed.Seconds(),
		}
		if span != nil {
			attrs = append(attrs, "trace_id", traceID)
		}
		s.logger.Info("http", attrs...)
	})
}

// traceSpanJSON is one span in the GET /traces/{id} tree.
type traceSpanJSON struct {
	SpanID          string           `json:"span_id"`
	ParentID        string           `json:"parent_id,omitempty"`
	Name            string           `json:"name"`
	Start           time.Time        `json:"start"`
	DurationSeconds float64          `json:"duration_seconds"`
	Attrs           map[string]any   `json:"attrs,omitempty"`
	EngineEvents    int              `json:"engine_events,omitempty"`
	Children        []*traceSpanJSON `json:"children,omitempty"`
}

// traceResponse is the GET /traces/{id} body: the flat count, the
// orphan count (zero in a healthy trace — the e2e tests assert it) and
// the resolved span tree.
type traceResponse struct {
	TraceID string           `json:"trace_id"`
	Spans   int              `json:"spans"`
	Orphans int              `json:"orphans"`
	Tree    []*traceSpanJSON `json:"tree"`
}

func toTraceJSON(n *trace.Node) *traceSpanJSON {
	out := &traceSpanJSON{
		SpanID:          n.ID.String(),
		Name:            n.Name,
		Start:           n.Start,
		DurationSeconds: n.Duration().Seconds(),
		EngineEvents:    n.EngineLen(),
	}
	if !n.Parent.IsZero() {
		out.ParentID = n.Parent.String()
	}
	if len(n.Attrs) > 0 {
		out.Attrs = make(map[string]any, len(n.Attrs))
		for _, a := range n.Attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, toTraceJSON(c))
	}
	return out
}

// handleTrace serves GET /traces/{id} (span tree) and
// GET /traces/{id}.json (Chrome trace-event JSON for Perfetto /
// chrome://tracing).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, r, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.tracer == nil {
		httpError(w, r, http.StatusNotFound, "tracing disabled")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/traces/")
	chrome := strings.HasSuffix(id, ".json")
	id = strings.TrimSuffix(id, ".json")
	tid, ok := trace.ParseTraceID(id)
	if !ok {
		httpError(w, r, http.StatusBadRequest, "malformed trace id %q", id)
		return
	}
	spans := s.tracer.Collect(tid)
	if len(spans) == 0 {
		httpError(w, r, http.StatusNotFound, "no spans recorded for trace %s", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if chrome {
		if err := trace.WriteChrome(w, spans); err != nil {
			s.logger.Error("chrome trace export", "trace_id", id, "error", err)
		}
		return
	}
	roots, orphans := trace.BuildTree(spans)
	resp := traceResponse{TraceID: id, Spans: len(spans), Orphans: orphans}
	for _, root := range roots {
		resp.Tree = append(resp.Tree, toTraceJSON(root))
	}
	json.NewEncoder(w).Encode(resp)
}

// healthzResponse is the GET /healthz body: liveness plus a cheap
// status snapshot (uptime, cache and queue occupancy).
type healthzResponse struct {
	OK            bool    `json:"ok"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	CacheEntries  int     `json:"cache_entries"`
	QueueDepth    int     `json:"queue_depth"`
	InFlight      int     `json:"in_flight"`
	TraceSpans    int     `json:"trace_spans"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{
		OK:            true,
		UptimeSeconds: time.Since(s.started).Seconds(),
		CacheEntries:  s.cache.Len(),
		QueueDepth:    s.sched.QueueDepth(),
		InFlight:      s.sched.InFlight(),
	}
	if s.tracer != nil {
		resp.TraceSpans = s.tracer.Len()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// readyzResponse is the GET /readyz body; Reasons is non-empty exactly
// when the status is 503.
type readyzResponse struct {
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
}

// handleReadyz: ready = disk store writable (when configured) AND the
// scheduler accepting jobs. Distinct from /healthz — a draining server
// is alive but not ready, so load balancers stop routing to it first.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := readyzResponse{Ready: true}
	if s.cache.store != nil {
		if err := s.cache.store.Probe(); err != nil {
			resp.Ready = false
			resp.Reasons = append(resp.Reasons, "store not writable: "+err.Error())
		}
	}
	if !s.sched.Ready() {
		resp.Ready = false
		resp.Reasons = append(resp.Reasons, "scheduler closed")
	}
	w.Header().Set("Content-Type", "application/json")
	if !resp.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(resp)
}
