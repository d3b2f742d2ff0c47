package core

import (
	"bytes"
	"reflect"
	"testing"

	"wormmesh/internal/topology"
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

// TestFlightRecorderMatchesRecorder locks in the dump-format contract:
// with a ring deep enough to hold the whole run, the flight recorder's
// decoded events are exactly the JSONL Recorder's stream — same events,
// same order, same fields — so every trace tool reads both identically.
func TestFlightRecorderMatchesRecorder(t *testing.T) {
	mesh := topology.New(4, 4)
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, testConfig(), 1)
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	rec.IncludeFlits = true
	n.SetTracer(rec)
	fr := NewFlightRecorder(4096)
	n.SetFlightRecorder(fr)

	driveTraffic(t, n)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("recorder saw no events")
	}
	got := fr.Events()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flight recorder events diverge from recorder stream:\n got %d events %+v\nwant %d events %+v",
			len(got), got, len(want), want)
	}
	if fr.Total() != rec.Events() {
		t.Errorf("Total = %d, recorder events = %d", fr.Total(), rec.Events())
	}

	// WriteTrace must round-trip through ReadTrace to the same events.
	var dump bytes.Buffer
	if err := fr.WriteTrace(&dump); err != nil {
		t.Fatal(err)
	}
	redecoded, err := ReadTrace(&dump)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(redecoded, want) {
		t.Error("WriteTrace dump does not round-trip to the recorder stream")
	}
}

// TestFlightRecorderRingWrap verifies the ring semantics after
// overflow: the recorder holds exactly the LAST capacity events of the
// run, oldest first, and Last(n) returns a suffix of that.
func TestFlightRecorderRingWrap(t *testing.T) {
	mesh := topology.New(4, 4)
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, testConfig(), 1)
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	rec.IncludeFlits = true
	n.SetTracer(rec)
	const capEvents = 8
	fr := NewFlightRecorder(capEvents)
	n.SetFlightRecorder(fr)

	driveTraffic(t, n)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
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

// TestFlightRecorderExcludesFlits checks the volume knob: with
// IncludeFlits off, per-flit link traversals are dropped while the
// header-level events stay.
func TestFlightRecorderExcludesFlits(t *testing.T) {
	mesh := topology.New(4, 4)
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, testConfig(), 1)
	fr := NewFlightRecorder(4096)
	fr.IncludeFlits = false
	n.SetFlightRecorder(fr)
	driveTraffic(t, n)
	kinds := map[string]int{}
	for _, e := range fr.Events() {
		kinds[e.Kind]++
	}
	if kinds["flit"] != 0 {
		t.Errorf("recorded %d flit events despite IncludeFlits=false", kinds["flit"])
	}
	if kinds["inject"] != 2 || kinds["deliver"] != 2 {
		t.Errorf("kinds = %v, want 2 injects and 2 delivers", kinds)
	}
}

// TestFlightRecorderSummarizes feeds a flight dump through the trace
// summary pipeline — the recorder's whole point is that offline tools
// need no second code path.
func TestFlightRecorderSummarizes(t *testing.T) {
	mesh := topology.New(4, 4)
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, testConfig(), 1)
	fr := NewFlightRecorder(4096)
	n.SetFlightRecorder(fr)
	driveTraffic(t, n)
	s := SummarizeTrace(fr.Events())
	if s.Messages != 2 || s.Delivered != 2 || s.Killed != 0 {
		t.Errorf("summary = %+v, want 2 messages delivered", s)
	}
	if s.FlitMoves == 0 {
		t.Error("summary counted no flit moves")
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
	n.SetFlightRecorder(fr)
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
