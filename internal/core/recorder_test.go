package core

import (
	"bytes"
	"io"
	"testing"

	"wormmesh/internal/topology"
)

// streamRecorder installs a flight recorder small enough to wrap on
// every workload below, streaming into w.
func streamRecorder(n *Network, w io.Writer, flits bool) *FlightRecorder {
	fr := NewFlightRecorder(4)
	fr.Stream(w, flits)
	n.SetTracer(fr)
	return fr
}

func TestRecorderRoundTrip(t *testing.T) {
	mesh := topology.New(4, 4)
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, testConfig(), 1)
	var buf bytes.Buffer
	rec := streamRecorder(n, &buf, true)

	m := offer(t, n, 42, topology.Coord{X: 0, Y: 0}, topology.Coord{X: 2, Y: 1}, 3)
	stepUntilDelivered(t, n, m, 100)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	events := readTrace(t, &buf)
	if int64(len(events)) != rec.Total() {
		t.Fatalf("parsed %d events, recorder says %d", len(events), rec.Total())
	}
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Kind]++
		if e.Msg != 42 {
			t.Errorf("event for unexpected message %d", e.Msg)
		}
	}
	if kinds["inject"] != 1 || kinds["deliver"] != 1 {
		t.Errorf("kinds = %v, want one inject and one deliver", kinds)
	}
	if kinds["route"] != 3 {
		t.Errorf("route events = %d, want 3 (3 hops)", kinds["route"])
	}
	// 3 links x 3 flits = 9 flit moves.
	if kinds["flit"] != 9 {
		t.Errorf("flit events = %d, want 9", kinds["flit"])
	}
	// Events are time-ordered.
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			t.Fatal("events out of order")
		}
	}
}

func TestRecorderWithoutFlits(t *testing.T) {
	mesh := topology.New(4, 4)
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, testConfig(), 1)
	var buf bytes.Buffer
	rec := streamRecorder(n, &buf, false)
	m := offer(t, n, 1, topology.Coord{X: 0, Y: 0}, topology.Coord{X: 3, Y: 0}, 5)
	stepUntilDelivered(t, n, m, 100)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	events := readTrace(t, &buf)
	if len(events) == 0 {
		t.Fatal("stream carried no events")
	}
	for _, e := range events {
		if e.Kind == "flit" {
			t.Fatal("flit event streamed without flits")
		}
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n += len(p)
	if f.n > 100000 {
		return 0, bytes.ErrTooLarge
	}
	return len(p), nil
}

func TestRecorderSurfacesWriteErrors(t *testing.T) {
	mesh := topology.New(4, 4)
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, testConfig(), 1)
	rec := streamRecorder(n, &failWriter{}, true)
	for i := 0; i < 3000; i++ {
		if i%3 == 0 {
			id := n.NextMessageID()
			m := NewMessage(id, topology.NodeID(i%16), topology.NodeID((i+5)%16), 10)
			m.GenTime = n.Cycle()
			if m.Src != m.Dst {
				n.Offer(m)
			}
		}
		n.Step()
	}
	if rec.Flush() == nil {
		t.Error("write error not surfaced")
	}
}
