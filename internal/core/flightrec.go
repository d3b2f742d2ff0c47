package core

import (
	"bufio"
	"encoding/json"
	"io"

	"wormmesh/internal/topology"
	"wormmesh/internal/trace"
)

// Flight recorder: the engine's one event sink. A fixed-capacity ring
// buffer of compact binary events, appended with zero heap allocations
// and zero RNG interaction, that always holds the LAST capacity events
// of the run. Every event consumer reads it:
//   - a deadlock post-mortem attaches the ring's tail (postmortem.go);
//   - meshsim -chrometrace and meshserve's job spans keep a Snapshot
//     of it and decode that into trace.EngineEvent on read;
//   - an attached JSONL stream (Stream; meshsim -trace) receives the
//     whole run: the ring encodes each event as it evicts it, and Flush
//     encodes the events still held at run end.
//
// Recording is strictly read-only observation: no callback mutates the
// network or draws from any RNG, so golden Stats are bit-identical with
// the recorder on or off (locked in by internal/sim's golden tests).
// The recorder installs into the network's single observer slot
// (SetTracer), so the disabled path stays one branch per event.

// frKind is the compact event discriminator of one ring slot.
type frKind uint8

const (
	frInject frKind = iota
	frRoute
	frFlit
	frDeliver
	frKill
	frWatchdog
)

var frKindNames = [...]string{"inject", "route", "flit", "deliver", "kill", "watchdog"}

// frEvent is one ring slot: a flat, pointer-free record (40 bytes) so
// the ring is a single allocation that the garbage collector never has
// to scan.
type frEvent struct {
	cycle int64
	msg   int64
	src   int32
	dst   int32
	node  int32
	flit  int32
	kind  frKind
	dir   uint8
	vc    uint8
	cause uint8
}

// FlightRecorder is a Tracer that keeps the most recent events in a
// preallocated ring. It is not safe for concurrent use; like every
// Tracer it runs synchronously on the simulation goroutine.
type FlightRecorder struct {
	buf   []frEvent
	next  int   // next slot to overwrite
	total int64 // events ever recorded

	// stream, when attached, receives every event as a JSON line;
	// streamed counts the events already handed to it.
	stream   *eventStream
	streamed int64
}

// DefaultFlightRecorderEvents is the ring capacity drivers use when the
// caller does not specify one: deep enough to span the tail of a stall
// at header-event granularity, small enough (~160 KiB) to forget about.
const DefaultFlightRecorderEvents = 4096

// NewFlightRecorder builds a recorder holding the last `capacity`
// events. Capacities < 1 fall back to DefaultFlightRecorderEvents.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity < 1 {
		capacity = DefaultFlightRecorderEvents
	}
	return &FlightRecorder{buf: make([]frEvent, 0, capacity)}
}

// Cap returns the ring capacity in events.
func (f *FlightRecorder) Cap() int { return cap(f.buf) }

// Len returns the number of events currently held (≤ Cap).
func (f *FlightRecorder) Len() int { return len(f.buf) }

// Total returns the number of events ever recorded, including those the
// ring has since overwritten.
func (f *FlightRecorder) Total() int64 { return f.total }

// Reset empties the ring, retaining its storage and any attached
// stream.
func (f *FlightRecorder) Reset() {
	f.buf = f.buf[:0]
	f.next = 0
	f.total = 0
	f.streamed = 0
}

// Stream attaches a JSONL stream: every event the ring holds or records
// from then on reaches w as one JSON object per line, per-flit hops
// only when includeFlits is set (they dominate the volume). The ring
// itself always records flits. Call Flush at run end.
func (f *FlightRecorder) Stream(w io.Writer, includeFlits bool) {
	f.stream = newEventStream(w, includeFlits)
}

// Flush encodes the held events the stream has not seen yet, flushes
// it and returns its first write error. The events stay in the ring for
// other readers. Without a stream it does nothing.
func (f *FlightRecorder) Flush() error {
	if f.stream == nil {
		return nil
	}
	first := f.total - int64(len(f.buf)) // sequence number of the oldest held event
	for i := max(f.streamed-first, 0); i < int64(len(f.buf)); i++ {
		f.stream.emit(f.at(int(i)))
	}
	f.streamed = f.total
	return f.stream.flush()
}

// record appends one event, overwriting the oldest slot once the ring
// is full — after streaming it, unless a Flush already did. The two
// branches keep the append allocation-free: the grow path re-slices
// within the preallocated capacity.
func (f *FlightRecorder) record(e frEvent) {
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, e)
	} else {
		if f.stream != nil && f.total-int64(len(f.buf)) >= f.streamed {
			f.stream.emit(f.buf[f.next])
			f.streamed++
		}
		f.buf[f.next] = e
		f.next++
		if f.next == len(f.buf) {
			f.next = 0
		}
	}
	f.total++
}

// MessageInjected implements Tracer.
func (f *FlightRecorder) MessageInjected(m *Message, cycle int64) {
	f.record(frEvent{cycle: cycle, kind: frInject, msg: m.ID, src: int32(m.Src), dst: int32(m.Dst)})
}

// HeaderRouted implements Tracer.
func (f *FlightRecorder) HeaderRouted(m *Message, node topology.NodeID, ch Channel, cycle int64) {
	f.record(frEvent{
		cycle: cycle, kind: frRoute, msg: m.ID, src: int32(m.Src), dst: int32(m.Dst),
		node: int32(node), dir: uint8(ch.Dir), vc: ch.VC,
	})
}

// FlitMoved implements Tracer.
func (f *FlightRecorder) FlitMoved(fl Flit, from topology.NodeID, ch Channel, cycle int64) {
	f.record(frEvent{
		cycle: cycle, kind: frFlit, msg: fl.Msg.ID, src: int32(fl.Msg.Src), dst: int32(fl.Msg.Dst),
		node: int32(from), dir: uint8(ch.Dir), vc: ch.VC, flit: fl.Index,
	})
}

// MessageDelivered implements Tracer.
func (f *FlightRecorder) MessageDelivered(m *Message, cycle int64) {
	f.record(frEvent{cycle: cycle, kind: frDeliver, msg: m.ID, src: int32(m.Src), dst: int32(m.Dst)})
}

// MessageKilled implements Tracer.
func (f *FlightRecorder) MessageKilled(m *Message, cause KillCause, cycle int64) {
	f.record(frEvent{cycle: cycle, kind: frKill, msg: m.ID, src: int32(m.Src), dst: int32(m.Dst), cause: uint8(cause)})
}

// WatchdogFired implements Tracer.
func (f *FlightRecorder) WatchdogFired(victim *Message, cycle int64) {
	e := frEvent{cycle: cycle, kind: frWatchdog}
	if victim != nil {
		e.msg, e.src, e.dst = victim.ID, int32(victim.Src), int32(victim.Dst)
	}
	f.record(e)
}

// decode expands one ring slot into the EngineEvent shape.
func (e frEvent) decode() trace.EngineEvent {
	out := trace.EngineEvent{
		Cycle: e.cycle, Kind: frKindNames[e.kind], Msg: e.msg,
		Src: e.src, Dst: e.dst,
	}
	switch e.kind {
	case frRoute, frFlit:
		out.Node = e.node
		out.Dir = topology.Direction(e.dir).String()
		out.VC = e.vc
		out.Flit = e.flit
	case frKill:
		out.Cause = KillCause(e.cause).String()
	}
	return out
}

// at returns the i-th oldest held event (0 = oldest). Callers keep i in
// [0, Len).
func (f *FlightRecorder) at(i int) frEvent {
	if len(f.buf) < cap(f.buf) {
		return f.buf[i] // ring has not wrapped yet: slot 0 is the oldest
	}
	j := f.next + i
	if j >= len(f.buf) {
		j -= len(f.buf)
	}
	return f.buf[j]
}

// Events decodes the held events, oldest first. It allocates; use it on
// the dump path, not per cycle.
func (f *FlightRecorder) Events() []trace.EngineEvent { return f.Snapshot().Events() }

// FlightLog is a copy of the events a FlightRecorder held, oldest
// first, in the ring's compact pointer-free form and sized to exactly
// those events. It satisfies trace.EngineLog, so a span can keep a
// run's engine history without pinning the recorder's whole ring or a
// decoded copy, and the recorder stays free to record again.
type FlightLog []frEvent

// Snapshot copies the held events into a FlightLog.
func (f *FlightRecorder) Snapshot() FlightLog {
	out := make(FlightLog, f.Len())
	for i := range out {
		out[i] = f.at(i)
	}
	return out
}

// Len returns the number of events in the log.
func (l FlightLog) Len() int { return len(l) }

// Events decodes the log, oldest first.
func (l FlightLog) Events() []trace.EngineEvent {
	out := make([]trace.EngineEvent, len(l))
	for i, e := range l {
		out[i] = e.decode()
	}
	return out
}

// Last decodes the most recent n held events, oldest of those first.
// n larger than Len returns everything.
func (f *FlightRecorder) Last(n int) []trace.EngineEvent {
	if n > f.Len() {
		n = f.Len()
	}
	if n < 0 {
		n = 0
	}
	out := make([]trace.EngineEvent, n)
	start := f.Len() - n
	for i := range out {
		out[i] = f.at(start + i).decode()
	}
	return out
}

// eventStream JSON-encodes ring events as lines through a buffer. It
// keeps the first write error and drops every event after it.
type eventStream struct {
	w     *bufio.Writer
	enc   *json.Encoder
	flits bool
	err   error
}

func newEventStream(w io.Writer, flits bool) *eventStream {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &eventStream{w: bw, enc: json.NewEncoder(bw), flits: flits}
}

func (s *eventStream) emit(e frEvent) {
	if s.err != nil || (e.kind == frFlit && !s.flits) {
		return
	}
	s.err = s.enc.Encode(e.decode())
}

func (s *eventStream) flush() error {
	if s.err == nil {
		s.err = s.w.Flush()
	}
	return s.err
}
