package core

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"wormmesh/internal/topology"
	"wormmesh/internal/trace"
)

// driveTraffic runs a small deterministic workload that produces all
// header-level event kinds except kill/watchdog: two crossing messages
// delivered on a 4x4 mesh.
func driveTraffic(t *testing.T, n *Network) {
	t.Helper()
	a := offer(t, n, 1, topology.Coord{X: 0, Y: 0}, topology.Coord{X: 3, Y: 2}, 5)
	b := offer(t, n, 2, topology.Coord{X: 3, Y: 3}, topology.Coord{X: 0, Y: 1}, 5)
	for !a.Delivered() || !b.Delivered() {
		n.Step()
		if n.Cycle() > 500 {
			t.Fatal("traffic not delivered")
		}
	}
}

// oracleTracer is the independent reference for the event format: it
// builds each event straight from the callback arguments, with none of
// the flight recorder's packing, ring arithmetic or streaming.
type oracleTracer struct {
	NopTracer
	events []trace.EngineEvent
}

func (o *oracleTracer) msgEvent(m *Message, kind string, cycle int64) trace.EngineEvent {
	return trace.EngineEvent{Cycle: cycle, Kind: kind, Msg: m.ID, Src: int32(m.Src), Dst: int32(m.Dst)}
}

func (o *oracleTracer) MessageInjected(m *Message, cycle int64) {
	o.events = append(o.events, o.msgEvent(m, "inject", cycle))
}

func (o *oracleTracer) HeaderRouted(m *Message, node topology.NodeID, ch Channel, cycle int64) {
	e := o.msgEvent(m, "route", cycle)
	e.Node, e.Dir, e.VC = int32(node), ch.Dir.String(), ch.VC
	o.events = append(o.events, e)
}

func (o *oracleTracer) FlitMoved(f Flit, from topology.NodeID, ch Channel, cycle int64) {
	e := o.msgEvent(f.Msg, "flit", cycle)
	e.Node, e.Dir, e.VC, e.Flit = int32(from), ch.Dir.String(), ch.VC, f.Index
	o.events = append(o.events, e)
}

func (o *oracleTracer) MessageDelivered(m *Message, cycle int64) {
	o.events = append(o.events, o.msgEvent(m, "deliver", cycle))
}

func (o *oracleTracer) MessageKilled(m *Message, cause KillCause, cycle int64) {
	e := o.msgEvent(m, "kill", cycle)
	e.Cause = cause.String()
	o.events = append(o.events, e)
}

func (o *oracleTracer) WatchdogFired(victim *Message, cycle int64) {
	e := trace.EngineEvent{Cycle: cycle, Kind: "watchdog"}
	if victim != nil {
		e.Msg, e.Src, e.Dst = victim.ID, int32(victim.Src), int32(victim.Dst)
	}
	o.events = append(o.events, e)
}

// oracleRun records the driveTraffic workload with the oracle.
func oracleRun(t *testing.T) []trace.EngineEvent {
	t.Helper()
	mesh := topology.New(4, 4)
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, testConfig(), 1)
	o := &oracleTracer{}
	n.SetTracer(o)
	driveTraffic(t, n)
	if len(o.events) == 0 {
		t.Fatal("oracle saw no events")
	}
	return o.events
}

// withoutFlits returns events minus the per-flit hops.
func withoutFlits(events []trace.EngineEvent) []trace.EngineEvent {
	var out []trace.EngineEvent
	for _, e := range events {
		if e.Kind != "flit" {
			out = append(out, e)
		}
	}
	return out
}

// encodeLines renders events as JSON lines, one object per event.
func encodeLines(t *testing.T, events []trace.EngineEvent) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// readTrace parses a JSONL event stream back into events.
func readTrace(t *testing.T, rd io.Reader) []trace.EngineEvent {
	t.Helper()
	var out []trace.EngineEvent
	dec := json.NewDecoder(rd)
	for dec.More() {
		var e trace.EngineEvent
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

// TestFlightRecorderMatchesRecorder locks in the event-format contract
// against the oracle: the ring's decoded tail (Events) is
// the oracle's tail, and the JSONL stream is byte for byte the oracle's
// whole run — whether the run fits in the ring or wraps it several
// times, with flits streamed or filtered out.
func TestFlightRecorderMatchesRecorder(t *testing.T) {
	want := oracleRun(t)
	for _, c := range []struct {
		name     string
		capacity int
		flits    bool
	}{
		{"fits", 4096, true},
		{"fits/no-flits", 4096, false},
		{"wraps", 8, true},
		{"wraps/no-flits", 8, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.capacity < len(want) && len(want) < 3*c.capacity {
				t.Fatalf("%d events wrap a %d-event ring less than three times", len(want), c.capacity)
			}
			mesh := topology.New(4, 4)
			n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, testConfig(), 1)
			fr := NewFlightRecorder(c.capacity)
			var stream bytes.Buffer
			fr.Stream(&stream, c.flits)
			n.SetTracer(fr)
			driveTraffic(t, n)
			if err := fr.Flush(); err != nil {
				t.Fatal(err)
			}

			if fr.Total() != int64(len(want)) {
				t.Errorf("Total = %d, oracle saw %d events", fr.Total(), len(want))
			}
			tail := want[max(len(want)-c.capacity, 0):]
			if got := fr.Events(); !reflect.DeepEqual(got, tail) {
				t.Errorf("Events diverge from the oracle's tail:\n got %d events %+v\nwant %d events %+v",
					len(got), got, len(tail), tail)
			}
			streamWant := want
			if !c.flits {
				streamWant = withoutFlits(want)
			}
			if !bytes.Equal(stream.Bytes(), encodeLines(t, streamWant)) {
				t.Errorf("stream differs from the oracle's run: %d events, want %d",
					len(readTrace(t, bytes.NewReader(stream.Bytes()))), len(streamWant))
			}

			// A second Flush streams nothing twice.
			before := stream.Len()
			if err := fr.Flush(); err != nil {
				t.Fatal(err)
			}
			if stream.Len() != before {
				t.Errorf("second Flush wrote %d more bytes", stream.Len()-before)
			}
		})
	}
}

// TestFlightRecorderRingWrap verifies the ring semantics after
// overflow: the recorder holds exactly the LAST capacity events of the
// run, oldest first, and Last(n) returns a suffix of that.
func TestFlightRecorderRingWrap(t *testing.T) {
	full := oracleRun(t)
	mesh := topology.New(4, 4)
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, testConfig(), 1)
	const capEvents = 8
	fr := NewFlightRecorder(capEvents)
	n.SetTracer(fr)

	driveTraffic(t, n)
	if len(full) <= capEvents {
		t.Fatalf("workload produced only %d events, need > %d to wrap", len(full), capEvents)
	}
	if fr.Len() != capEvents || fr.Cap() != capEvents {
		t.Fatalf("Len/Cap = %d/%d, want %d/%d", fr.Len(), fr.Cap(), capEvents, capEvents)
	}
	if fr.Total() != int64(len(full)) {
		t.Errorf("Total = %d, want %d", fr.Total(), len(full))
	}
	want := full[len(full)-capEvents:]
	if got := fr.Events(); !reflect.DeepEqual(got, want) {
		t.Errorf("wrapped ring holds %+v, want trailing events %+v", got, want)
	}
	if got, want := fr.Last(3), full[len(full)-3:]; !reflect.DeepEqual(got, want) {
		t.Errorf("Last(3) = %+v, want %+v", got, want)
	}
	if got := fr.Last(capEvents * 4); !reflect.DeepEqual(got, want) {
		t.Errorf("Last(> Len) = %d events, want the full ring (%d)", len(got), capEvents)
	}

	fr.Reset()
	if fr.Len() != 0 || fr.Total() != 0 {
		t.Errorf("after Reset: Len=%d Total=%d, want 0/0", fr.Len(), fr.Total())
	}
	if fr.Cap() != capEvents {
		t.Errorf("Reset dropped the ring storage: Cap=%d", fr.Cap())
	}
}

// TestFlightRecorderSnapshot checks the copy a span keeps: exactly the
// held events, oldest first, however large the ring (a short run in a
// default-sized ring must not pin the whole ring), and unchanged when
// the recorder is reset and records again.
func TestFlightRecorderSnapshot(t *testing.T) {
	full := oracleRun(t)
	for _, capEvents := range []int{8, 4 * len(full)} {
		mesh := topology.New(4, 4)
		n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, testConfig(), 1)
		fr := NewFlightRecorder(capEvents)
		n.SetTracer(fr)
		driveTraffic(t, n)

		snap := fr.Snapshot()
		want := full[max(len(full)-capEvents, 0):]
		if snap.Len() != len(want) || cap(snap) != len(want) {
			t.Fatalf("cap %d: snapshot Len/cap = %d/%d, want %d/%d", capEvents, snap.Len(), cap(snap), len(want), len(want))
		}
		if got := snap.Events(); !reflect.DeepEqual(got, want) {
			t.Errorf("cap %d: snapshot decodes to %d events, want the %d held", capEvents, len(got), len(want))
		}

		fr.Reset()
		for range capEvents {
			fr.MessageInjected(&Message{ID: 999}, 12345)
		}
		if got := snap.Events(); !reflect.DeepEqual(got, want) {
			t.Errorf("cap %d: snapshot changed when its recorder recorded again", capEvents)
		}
	}
}

// TestFlightRecorderExcludesFlits checks the volume knob: a stream
// without flits drops the per-flit link traversals while the
// header-level events stay — and the ring itself still records the
// flits, so post-mortems sharing it see where progress stopped.
func TestFlightRecorderExcludesFlits(t *testing.T) {
	mesh := topology.New(4, 4)
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, testConfig(), 1)
	fr := NewFlightRecorder(4096)
	var stream bytes.Buffer
	fr.Stream(&stream, false)
	n.SetTracer(fr)
	driveTraffic(t, n)
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range readTrace(t, &stream) {
		kinds[e.Kind]++
	}
	if kinds["flit"] != 0 {
		t.Errorf("streamed %d flit events without flits", kinds["flit"])
	}
	if kinds["inject"] != 2 || kinds["deliver"] != 2 {
		t.Errorf("kinds = %v, want 2 injects and 2 delivers", kinds)
	}
	held := map[string]int{}
	for _, e := range fr.Events() {
		held[e.Kind]++
	}
	if held["flit"] == 0 {
		t.Error("ring dropped the flit events the stream filtered")
	}
}

// TestFlightRecorderSummarizes counts a flight dump's events by kind:
// the decoded dump tells each message's story (injected, delivered,
// never killed) with its flit moves.
func TestFlightRecorderSummarizes(t *testing.T) {
	mesh := topology.New(4, 4)
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, testConfig(), 1)
	fr := NewFlightRecorder(4096)
	n.SetTracer(fr)
	driveTraffic(t, n)
	kinds := map[string]int{}
	msgs := map[int64]bool{}
	for _, e := range fr.Events() {
		kinds[e.Kind]++
		msgs[e.Msg] = true
	}
	if len(msgs) != 2 || kinds["inject"] != 2 || kinds["deliver"] != 2 || kinds["kill"] != 0 {
		t.Errorf("%d messages, kinds = %v, want 2 messages injected and delivered", len(msgs), kinds)
	}
	if kinds["flit"] == 0 {
		t.Error("dump holds no flit moves")
	}
}

// TestStepLoadedAllocsWithFlightRecorder extends the zero-allocation
// budget to the observed engine: a loaded steady-state Step with the
// flight recorder ring wrapping every cycle must still never touch the
// heap. This is the recorder's admission ticket for long sweeps.
func TestStepLoadedAllocsWithFlightRecorder(t *testing.T) {
	var mesh topology.Topology = topology.New(10, 10) // box once, not per call

	n, rng, id := loadNetwork(t, mesh)
	fr := NewFlightRecorder(1024)
	n.SetTracer(fr)
	// Prime the ring past its first wrap so the append path is the
	// overwrite branch throughout the measured region.
	for i := 0; i < 50; i++ {
		stepLoaded(n, mesh, rng, id)
	}
	if fr.Len() != fr.Cap() {
		t.Fatalf("ring not saturated before measurement: %d/%d", fr.Len(), fr.Cap())
	}
	allocs := testing.AllocsPerRun(500, func() {
		stepLoaded(n, mesh, rng, id)
	})
	if allocs != 0 {
		t.Errorf("loaded Step with flight recorder allocates %.2f objects/cycle, want 0", allocs)
	}
}
