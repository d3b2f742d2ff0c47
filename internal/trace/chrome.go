package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Chrome trace-event exporter. The Chrome trace-event JSON format —
// https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
// — is what chrome://tracing and Perfetto (ui.perfetto.dev) load, which
// makes it the cheapest possible interactive timeline viewer: no
// rendering code in this repo at all.
//
// Two time bases coexist in one file:
//
//   - Service spans are wall-clock. They land in process 1 ("meshserve")
//     with ts/dur in real microseconds, each trace's spans on a track
//     (tid) of their own so concurrent requests don't interleave into
//     false nesting.
//   - Engine events are cycle-clock. A wormhole simulation has no
//     meaningful wall time per event (the flight recorder stamps
//     cycles), so they land in process 2 ("engine") with ONE CYCLE
//     RENDERED AS ONE MICROSECOND, one track per message: the message's
//     lifetime (inject -> deliver/kill) as a complete slice, with route,
//     flit and watchdog history as instants on it. Scrolling process 2
//     therefore scrubs through simulated time, not wall time.
//
// Everything is streamed — the exporter never materializes the event
// list — so dumping a six-figure-event flight ring costs one pass.

// chromeEvent is one trace-event object; fields follow the format's
// phase-dependent schema.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

const (
	chromePidService = 1
	chromePidEngine  = 2
)

// WriteChrome renders one trace's spans (plus any engine events
// attached to them) as Chrome trace-event JSON:
// {"traceEvents":[...],"displayTimeUnit":"ms"}. Wall-clock timestamps
// are rebased so the earliest span starts at ts=0 — Perfetto handles
// absolute epochs poorly and nothing in a single trace needs them.
func WriteChrome(w io.Writer, spans []SpanData) error {
	bw := bufio.NewWriter(w)
	enc := &chromeEncoder{w: bw}
	enc.open()

	var epoch time.Time
	for i := range spans {
		if epoch.IsZero() || spans[i].Start.Before(epoch) {
			epoch = spans[i].Start
		}
	}

	// Name the processes and the per-trace service tracks.
	enc.meta("process_name", chromePidService, 0, map[string]any{"name": "meshserve"})
	enc.meta("process_name", chromePidEngine, 0, map[string]any{"name": "engine (1 cycle = 1us)"})

	tids := map[TraceID]int64{}
	for i := range spans {
		s := &spans[i]
		tid, ok := tids[s.Trace]
		if !ok {
			tid = int64(len(tids) + 1)
			tids[s.Trace] = tid
			enc.meta("thread_name", chromePidService, tid,
				map[string]any{"name": "trace " + s.Trace.String()[:8]})
		}
		args := map[string]any{"trace_id": s.Trace.String(), "span_id": s.ID.String()}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		enc.event(chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Sub(epoch)) / float64(time.Microsecond),
			Dur: float64(s.Duration()) / float64(time.Microsecond),
			Pid: chromePidService, Tid: tid, Args: args,
		})
		if s.Engine != nil {
			writeEngineEvents(enc, s.Engine.Events())
		}
		writeWindowSeries(enc, s.Windows)
	}
	enc.close()
	if enc.err != nil {
		return enc.err
	}
	return bw.Flush()
}

// writeEngineEvents renders one span's attached engine history into the
// engine process: per-message lifetime slices plus event instants, all
// on the cycle timeline (one message per track).
func writeEngineEvents(enc *chromeEncoder, events []EngineEvent) {
	if len(events) == 0 {
		return
	}
	// First pass: message lifetimes. A message's slice opens at the
	// first event that mentions it (the ring may have evicted its
	// inject) and closes at deliver/kill, or at the last cycle seen,
	// tagged unfinished.
	type life struct {
		first, last int64
		src, dst    int32
		closedBy    string
	}
	lives := map[int64]*life{}
	order := make([]int64, 0, 64) // deterministic slice emission order
	for i := range events {
		e := &events[i]
		if e.Kind == "watchdog" && e.Msg == 0 {
			continue // victimless watchdog: no message to track
		}
		l := lives[e.Msg]
		if l == nil {
			l = &life{first: e.Cycle, src: e.Src, dst: e.Dst}
			lives[e.Msg] = l
			order = append(order, e.Msg)
		}
		l.last = e.Cycle
		if e.Kind == "deliver" || e.Kind == "kill" {
			l.closedBy = e.Kind
		}
	}
	for _, msg := range order {
		l := lives[msg]
		args := map[string]any{"src": l.src, "dst": l.dst}
		if l.closedBy == "" {
			args["unfinished"] = true
		} else {
			args["end"] = l.closedBy
		}
		enc.event(chromeEvent{
			Name: fmt.Sprintf("msg %d: %d->%d", msg, l.src, l.dst), Ph: "X",
			Ts: float64(l.first), Dur: float64(l.last - l.first),
			Pid: chromePidEngine, Tid: msg, Args: args,
		})
	}
	// Second pass: every event as a thread-scoped instant on its
	// message's track, so zooming a message shows its route/flit/kill
	// history cycle by cycle.
	for i := range events {
		e := &events[i]
		args := map[string]any{"cycle": e.Cycle}
		if e.Kind == "route" || e.Kind == "flit" {
			args["node"] = e.Node
			args["dir"] = e.Dir
			args["vc"] = e.VC
		}
		if e.Kind == "kill" {
			args["cause"] = e.Cause
		}
		name := e.Kind
		if e.Kind == "flit" {
			name = fmt.Sprintf("flit %d", e.Flit)
		}
		enc.event(chromeEvent{
			Name: name, Ph: "i", S: "t",
			Ts:  float64(e.Cycle),
			Pid: chromePidEngine, Tid: e.Msg, Args: args,
		})
	}
}

// writeWindowSeries renders a span's window telemetry as Perfetto
// counter tracks ("ph":"C") on the engine's cycle timeline, so the
// run's throughput/latency/backlog trajectory sits directly above the
// per-message slices writeEngineEvents emits. Each counter event is
// stamped at the cycle its window closed; Perfetto draws the series as
// a step plot per track.
func writeWindowSeries(enc *chromeEncoder, windows []WindowPoint) {
	for i := range windows {
		w := &windows[i]
		ts := float64(w.End)
		enc.event(chromeEvent{
			Name: "window throughput", Ph: "C",
			Ts: ts, Pid: chromePidEngine,
			Args: map[string]any{"flits/node/cycle": w.Throughput},
		})
		enc.event(chromeEvent{
			Name: "window latency", Ph: "C",
			Ts: ts, Pid: chromePidEngine,
			Args: map[string]any{"cycles": w.AvgLatency},
		})
		enc.event(chromeEvent{
			Name: "window backlog", Ph: "C",
			Ts: ts, Pid: chromePidEngine,
			Args: map[string]any{"in_flight": w.InFlight, "blocked_links": w.BlockedLinks},
		})
	}
}

// chromeEncoder streams the traceEvents array.
type chromeEncoder struct {
	w   io.Writer
	n   int
	err error
}

func (e *chromeEncoder) open() {
	_, err := io.WriteString(e.w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	if e.err == nil {
		e.err = err
	}
}

func (e *chromeEncoder) event(ev chromeEvent) {
	if e.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		e.err = err
		return
	}
	if e.n > 0 {
		if _, err := io.WriteString(e.w, ",\n"); err != nil {
			e.err = err
			return
		}
	}
	if _, err := e.w.Write(b); err != nil {
		e.err = err
		return
	}
	e.n++
}

func (e *chromeEncoder) meta(name string, pid int, tid int64, args map[string]any) {
	e.event(chromeEvent{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: args})
}

func (e *chromeEncoder) close() {
	if e.err != nil {
		return
	}
	_, err := io.WriteString(e.w, "\n]}\n")
	e.err = err
}
