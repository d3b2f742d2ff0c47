// Package trace is the service-side request-tracing layer: spans with
// 128-bit trace / 64-bit span identities, wall-clock start/end times
// and typed-ish attributes, collected into a fixed-capacity ring of
// completed spans. It is deliberately zero-dependency (stdlib only, no
// engine imports) so any layer — HTTP handlers, the scheduler, CLIs —
// can emit spans without coupling. It also declares EngineEvent, the
// one decoded shape of an engine event: the engine imports this package
// for it, and spans carry a snapshot of the flight recorder as an
// EngineLog that decodes to that shape on read.
//
// The design mirrors the engine's observability contract: emitting a
// span never blocks the traced work beyond a mutex'd ring append, a nil
// *Span (tracing disabled) accepts every call as a no-op so call sites
// carry no conditionals, and completed spans are immutable once
// committed. Trace identity propagates across process hops through the
// W3C traceparent header form ("00-<trace>-<span>-01"), so a future
// sharded meshserve can stitch one request's spans across servers.
package trace

import (
	"encoding/binary"
	"encoding/hex"
	mrand "math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one request end to end: 16 random bytes, rendered
// as 32 lowercase hex digits.
type TraceID [16]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 32 hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// ParseTraceID parses a 32-hex-digit trace ID.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 32 {
		return t, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return t, !t.IsZero()
}

// SpanID identifies one span within a trace: 8 random bytes, 16 hex
// digits.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 16 hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// Context is the propagation half of a span: enough identity to parent
// a child span in another goroutine, request or process.
type Context struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context carries a usable trace identity.
func (c Context) Valid() bool { return !c.Trace.IsZero() }

// Traceparent renders the context in the W3C traceparent form:
// version 00, trace ID, parent span ID, flags 01 (sampled).
func (c Context) Traceparent() string {
	return "00-" + c.Trace.String() + "-" + c.Span.String() + "-01"
}

// ParseTraceparent parses a traceparent header. Only the version-00
// layout is accepted; anything malformed returns ok=false and the
// caller starts a fresh trace.
func ParseTraceparent(h string) (Context, bool) {
	// 00-<32 hex>-<16 hex>-<2 hex>
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return Context{}, false
	}
	var c Context
	if _, err := hex.Decode(c.Trace[:], []byte(h[3:35])); err != nil {
		return Context{}, false
	}
	if _, err := hex.Decode(c.Span[:], []byte(h[36:52])); err != nil {
		return Context{}, false
	}
	if c.Trace.IsZero() || c.Span.IsZero() {
		return Context{}, false
	}
	return c, true
}

// Attr is one span attribute. Values should be strings, integers,
// floats or bools — things that render losslessly into JSON.
type Attr struct {
	Key   string
	Value any
}

// EngineEvent is one decoded engine event: a line of the engine's
// JSONL event stream (meshsim -trace), an entry of a flight-recorder
// dump or post-mortem tail, and the engine history a span carries on
// the cycle timeline. Cycles are the time base, not wall time.
type EngineEvent struct {
	Cycle int64  `json:"cycle"`
	Kind  string `json:"kind"` // inject | route | flit | deliver | kill | watchdog
	Msg   int64  `json:"msg"`
	Src   int32  `json:"src"`
	Dst   int32  `json:"dst"`
	Node  int32  `json:"node,omitempty"`
	Dir   string `json:"dir,omitempty"`
	VC    uint8  `json:"vc,omitempty"`
	Flit  int32  `json:"flit,omitempty"`
	// Cause qualifies kill events: global | stall | livelock.
	Cause string `json:"cause,omitempty"`
}

// EngineLog is the engine history attached to a span, decoded only when
// read. core.FlightLog (a flight recorder's Snapshot) satisfies it, so a
// span keeps the run's events in their compact pointer-free form.
type EngineLog interface {
	Len() int
	Events() []EngineEvent
}

// SpanData is one completed (or in-flight, inside *Span) span record.
type SpanData struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID // zero for a root span
	Name   string
	Start  time.Time
	End    time.Time
	Attrs  []Attr
	// Engine is the engine history bridged onto this span (a snapshot
	// of the job's flight recorder); nil for pure service spans.
	Engine EngineLog
	// Windows holds the run's time-resolved telemetry series (the
	// WindowSampler's snapshots, mirrored dependency-free); the Chrome
	// exporter renders them as counter tracks on the cycle timeline.
	Windows []WindowPoint
}

// EngineLen returns how many engine events the span carries.
func (d *SpanData) EngineLen() int {
	if d.Engine == nil {
		return 0
	}
	return d.Engine.Len()
}

// Duration returns End−Start (zero for instants).
func (d *SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

// Attr returns the value of the named attribute, or nil.
func (d *SpanData) Attr(key string) any {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// Span is an in-flight span. It is built by exactly one goroutine and
// committed to its Tracer's ring by End/EndAt; after that the Span must
// not be touched. Every method is nil-safe, so call sites behind a
// disabled tracer need no guards.
type Span struct {
	t    *Tracer
	data SpanData
}

// Context returns the span's propagation context (zero for nil spans).
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return Context{Trace: s.data.Trace, Span: s.data.ID}
}

// TraceID returns the owning trace's ID (zero for nil spans).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.data.Trace
}

// Set records one attribute.
func (s *Span) Set(key string, value any) {
	if s == nil {
		return
	}
	s.data.Attrs = append(s.data.Attrs, Attr{Key: key, Value: value})
}

// AttachEngine hands the run's engine history to the span; it is
// carried into the ring on End and decoded by the Chrome exporter on
// every read. The span holds log as given, and the engine budget counts
// its Len, so log should own exactly its events (a FlightLog does).
func (s *Span) AttachEngine(log EngineLog) {
	if s == nil {
		return
	}
	s.data.Engine = log
}

// AttachWindows hands a run's window telemetry series to the span; the
// Chrome exporter renders it as counter tracks ("ph":"C") on the
// engine's cycle timeline.
func (s *Span) AttachWindows(windows []WindowPoint) {
	if s == nil {
		return
	}
	s.data.Windows = windows
}

// Child starts a child span beginning now.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.StartAt(name, s.Context(), time.Time{})
}

// ChildAt starts a child span with an explicit start time — how the
// scheduler backfills a queue-wait span from the moment the job was
// accepted.
func (s *Span) ChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	return s.t.StartAt(name, s.Context(), start)
}

// Instant commits a zero-duration child span at time.Now().
func (s *Span) Instant(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	now := time.Now()
	s.t.commit(SpanData{
		Trace: s.data.Trace, ID: s.t.newSpanID(), Parent: s.data.ID,
		Name: name, Start: now, End: now, Attrs: attrs,
	})
}

// End commits the span as of time.Now().
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt commits the span with an explicit end time.
func (s *Span) EndAt(end time.Time) {
	if s == nil {
		return
	}
	s.data.End = end
	s.t.commit(s.data)
}

// DefaultCapacity is the completed-span ring size when the caller does
// not choose one: deep enough to hold the last few hundred requests'
// trees, small enough to forget about.
const DefaultCapacity = 8192

// DefaultEngineBudget caps how many engine events the ring retains in
// total, across all spans. A span's flight-recorder snapshot (40 bytes
// an event, pointer-free; 4096 events ≈ 160 KB) dwarfs the span itself,
// so without an aggregate cap a burst of recorded runs would pin an
// unbounded heap into the ring. When the budget is exceeded the OLDEST
// spans shed their engine payload first — the span, its timing and its
// engine_events count attribute all survive; only the cycle-level
// detail ages out. 64 Ki events ≈ the 16 most recent fully-recorded
// runs ≈ 2.6 MB worst case.
const DefaultEngineBudget = 64 * 1024

// Tracer owns the completed-span ring. Starting and committing spans is
// safe from any number of goroutines; the ring overwrites its oldest
// spans once full, so /traces answers about recent requests and memory
// stays bounded (span count by capacity, engine-event detail by
// DefaultEngineBudget).
type Tracer struct {
	mu         sync.Mutex
	buf        []SpanData
	next       int
	engineHeld int // total EngineLen across the ring
	started    atomic.Int64
	ended      atomic.Int64
}

// New builds a tracer retaining the last `capacity` completed spans
// (DefaultCapacity when capacity < 1).
func New(capacity int) *Tracer {
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	return &Tracer{buf: make([]SpanData, 0, capacity)}
}

// newSpanID draws a random non-zero span ID.
func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		randRead(id[:])
	}
	return id
}

// randRead fills b from math/rand/v2's global ChaCha8 generator: it is
// seeded with system entropy at startup, goroutine-safe without a
// shared lock, and — unlike crypto/rand — costs no getrandom syscall.
// IDs need fleet-wide collision resistance, not unpredictability, and
// 128 ChaCha8 bits provide exactly that at ~5ns per word.
func randRead(b []byte) {
	for len(b) >= 8 {
		binary.BigEndian.PutUint64(b, mrand.Uint64())
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		binary.BigEndian.PutUint64(tail[:], mrand.Uint64())
		copy(b, tail[:])
	}
}

// StartAt starts a span. A valid parent context puts the span in that
// trace; an invalid one starts a new trace with this span as root.
// A zero start time means now. The returned span is owned by the
// calling goroutine until End.
func (t *Tracer) StartAt(name string, parent Context, start time.Time) *Span {
	if t == nil {
		return nil
	}
	if start.IsZero() {
		start = time.Now()
	}
	s := &Span{t: t}
	s.data.Name = name
	s.data.Start = start
	s.data.ID = t.newSpanID()
	if parent.Valid() {
		s.data.Trace = parent.Trace
		s.data.Parent = parent.Span
	} else {
		for s.data.Trace.IsZero() {
			randRead(s.data.Trace[:])
		}
	}
	t.started.Add(1)
	return s
}

// Start starts a span beginning now (see StartAt).
func (t *Tracer) Start(name string, parent Context) *Span {
	return t.StartAt(name, parent, time.Time{})
}

// commit files a completed span into the ring and enforces the
// engine-event retention budget.
func (t *Tracer) commit(d SpanData) {
	t.ended.Add(1)
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, d)
	} else {
		t.engineHeld -= t.buf[t.next].EngineLen()
		t.buf[t.next] = d
		t.next++
		if t.next == len(t.buf) {
			t.next = 0
		}
	}
	if t.engineHeld += d.EngineLen(); t.engineHeld > DefaultEngineBudget {
		t.shedEngine()
	}
	t.mu.Unlock()
}

// shedEngine walks the ring oldest-first, dropping engine payloads
// until the retained total fits the budget again. The newest span's
// payload is always kept, even if it alone exceeds the budget — the
// request being debugged right now beats history. Caller holds t.mu.
func (t *Tracer) shedEngine() {
	n := len(t.buf)
	for off := 0; off < n-1 && t.engineHeld > DefaultEngineBudget; off++ {
		i := (t.next + off) % n // t.next is the oldest slot once the ring wraps
		if n := t.buf[i].EngineLen(); n > 0 {
			t.engineHeld -= n
			t.buf[i].Engine = nil
		}
	}
}

// Len returns how many completed spans the ring currently holds.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Counts returns how many spans were ever started and ended.
func (t *Tracer) Counts() (started, ended int64) {
	return t.started.Load(), t.ended.Load()
}

// Collect returns every completed span of the given trace still in the
// ring, sorted by start time (stable, so equal-start parent/child pairs
// keep commit order). The returned slices are copies; mutating them
// cannot corrupt the ring.
func (t *Tracer) Collect(id TraceID) []SpanData {
	t.mu.Lock()
	var out []SpanData
	for i := range t.buf {
		if t.buf[i].Trace == id {
			out = append(out, t.buf[i])
		}
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Node is one span with its resolved children — the tree form /traces
// renders.
type Node struct {
	SpanData
	Children []*Node
}

// BuildTree resolves parent links over one trace's spans. Roots are
// spans whose parent is zero or absent from the set *and* that are not
// descendants of any present span; orphans counts the spans whose
// declared parent is missing (a broken tree — the e2e tests assert
// zero). Children are ordered by start time.
func BuildTree(spans []SpanData) (roots []*Node, orphans int) {
	nodes := make(map[SpanID]*Node, len(spans))
	for i := range spans {
		nodes[spans[i].ID] = &Node{SpanData: spans[i]}
	}
	orphaned := make(map[SpanID]bool)
	for _, n := range nodes {
		if n.Parent.IsZero() {
			continue
		}
		if p, ok := nodes[n.Parent]; ok && p != n {
			p.Children = append(p.Children, n)
		} else {
			// The declared parent is not in the set: a remotely-parented
			// root (Traceparent propagation) or a broken tree. Either
			// way it still renders, as a root.
			orphans++
			orphaned[n.ID] = true
		}
	}
	// Deterministic order: roots and children sorted by start time.
	for i := range spans {
		n := nodes[spans[i].ID]
		if n.Parent.IsZero() || orphaned[n.ID] {
			roots = append(roots, n)
		}
	}
	var sortChildren func(n *Node)
	sortChildren = func(n *Node) {
		sort.SliceStable(n.Children, func(i, j int) bool {
			return n.Children[i].Start.Before(n.Children[j].Start)
		})
		for _, c := range n.Children {
			sortChildren(c)
		}
	}
	sort.SliceStable(roots, func(i, j int) bool { return roots[i].Start.Before(roots[j].Start) })
	for _, r := range roots {
		sortChildren(r)
	}
	return roots, orphans
}
