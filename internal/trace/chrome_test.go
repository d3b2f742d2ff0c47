package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// chromeDoc mirrors the exported document shape for verification.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeValidJSON(t *testing.T) {
	tr := New(64)
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	root := tr.StartAt("HTTP POST /run", Context{}, t0)
	run := tr.StartAt("run", root.Context(), t0.Add(time.Millisecond))
	run.Set("algorithm", "Duato")
	run.AttachEngine(EventList{
		{Cycle: 0, Kind: "inject", Msg: 1, Src: 0, Dst: 5},
		{Cycle: 2, Kind: "route", Msg: 1, Src: 0, Dst: 5, Node: 1, Dir: "E", VC: 3},
		{Cycle: 3, Kind: "flit", Msg: 1, Src: 0, Dst: 5, Node: 1, Dir: "E", Flit: 1},
		{Cycle: 9, Kind: "deliver", Msg: 1, Src: 0, Dst: 5},
		{Cycle: 4, Kind: "inject", Msg: 2, Src: 3, Dst: 7},
		{Cycle: 11, Kind: "kill", Msg: 2, Src: 3, Dst: 7, Cause: "stall"},
		{Cycle: 11, Kind: "watchdog"},
	})
	run.EndAt(t0.Add(40 * time.Millisecond))
	root.EndAt(t0.Add(41 * time.Millisecond))

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Collect(root.TraceID())); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	var serviceSlices, engineSlices, instants, metas int
	var rootTs, rootDur float64
	lifetimes := map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M":
			metas++
		case e.Ph == "X" && e.Pid == chromePidService:
			serviceSlices++
			if e.Name == "HTTP POST /run" {
				rootTs, rootDur = e.Ts, e.Dur
			}
		case e.Ph == "X" && e.Pid == chromePidEngine:
			engineSlices++
			lifetimes[e.Name] = true
		case e.Ph == "i":
			instants++
		default:
			t.Errorf("unexpected event %+v", e)
		}
	}
	if serviceSlices != 2 {
		t.Errorf("service slices = %d, want 2", serviceSlices)
	}
	// Two messages, one lifetime slice each; the victimless watchdog
	// must not fabricate a message track.
	if engineSlices != 2 || !lifetimes["msg 1: 0->5"] || !lifetimes["msg 2: 3->7"] {
		t.Errorf("engine lifetimes = %v", lifetimes)
	}
	if instants != 7 {
		t.Errorf("instants = %d, want 7 (every engine event)", instants)
	}
	// Wall clock is rebased: the earliest span starts at ts 0.
	if rootTs != 0 {
		t.Errorf("root ts = %g, want 0 after rebase", rootTs)
	}
	if rootDur != 41000 {
		t.Errorf("root dur = %g us, want 41000", rootDur)
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty export invalid: %v", err)
	}
	// Process metadata is always present; no span events.
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" {
			t.Fatalf("unexpected event in empty trace: %+v", e)
		}
	}
}

// TestWriteChromeWindowCounters round-trips an attached window series
// through the exporter: every window must come back as one counter
// event ("ph":"C") per track on the engine timeline, stamped at the
// cycle the window closed, with the values intact.
func TestWriteChromeWindowCounters(t *testing.T) {
	tr := New(16)
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	root := tr.StartAt("run", Context{}, t0)
	windows := []WindowPoint{
		{Seq: 0, Start: 0, End: 512, Delivered: 40, DeliveredFlits: 1280,
			InFlight: 9, BlockedLinks: 3, AvgLatency: 74.5, Throughput: 0.025},
		{Seq: 1, Start: 512, End: 1024, Delivered: 44, DeliveredFlits: 1408,
			InFlight: 7, BlockedLinks: 1, AvgLatency: 70.25, Throughput: 0.0275},
	}
	root.AttachWindows(windows)
	root.EndAt(t0.Add(time.Second))

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Collect(root.TraceID())); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	type sample struct {
		ts   float64
		args map[string]any
	}
	counters := map[string][]sample{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "C" {
			continue
		}
		if ev.Pid != 2 {
			t.Errorf("counter %q on pid %d, want the engine process (2)", ev.Name, ev.Pid)
		}
		counters[ev.Name] = append(counters[ev.Name], sample{ev.Ts, ev.Args})
	}
	for _, name := range []string{"window throughput", "window latency", "window backlog"} {
		got := counters[name]
		if len(got) != len(windows) {
			t.Fatalf("counter %q has %d samples, want %d", name, len(got), len(windows))
		}
		for i, s := range got {
			if s.ts != float64(windows[i].End) {
				t.Errorf("counter %q sample %d at ts %v, want cycle %d", name, i, s.ts, windows[i].End)
			}
		}
	}
	if v := counters["window throughput"][1].args["flits/node/cycle"]; v != 0.0275 {
		t.Errorf("throughput sample = %v, want 0.0275", v)
	}
	if v := counters["window latency"][0].args["cycles"]; v != 74.5 {
		t.Errorf("latency sample = %v, want 74.5", v)
	}
	if v := counters["window backlog"][0].args["in_flight"]; v != 9.0 {
		t.Errorf("backlog sample = %v, want 9", v)
	}
	if v := counters["window backlog"][1].args["blocked_links"]; v != 1.0 {
		t.Errorf("blocked sample = %v, want 1", v)
	}
}
