package trace

import (
	"sync"
	"testing"
	"time"
)

// EventList is an engine history already decoded to events, the
// EngineLog these tests attach.
type EventList []EngineEvent

func (l EventList) Len() int              { return len(l) }
func (l EventList) Events() []EngineEvent { return l }

func TestIDs(t *testing.T) {
	tr := New(16)
	s1 := tr.Start("a", Context{})
	s2 := tr.Start("b", Context{})
	if s1.TraceID().IsZero() || s2.TraceID().IsZero() {
		t.Fatal("zero trace IDs drawn")
	}
	if s1.TraceID() == s2.TraceID() {
		t.Fatal("two fresh roots share a trace ID")
	}
	if s1.Context().Span == s2.Context().Span {
		t.Fatal("two spans share a span ID")
	}
	id := s1.TraceID()
	parsed, ok := ParseTraceID(id.String())
	if !ok || parsed != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v", id.String(), parsed, ok)
	}
	if _, ok := ParseTraceID("xyz"); ok {
		t.Fatal("garbage trace ID parsed")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New(16)
	s := tr.Start("root", Context{})
	h := s.Context().Traceparent()
	c, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("own traceparent %q did not parse", h)
	}
	if c != s.Context() {
		t.Fatalf("round trip lost identity: %v != %v", c, s.Context())
	}
	for _, bad := range []string{
		"", "00", "01-" + s.TraceID().String() + "-0123456789abcdef-01",
		"00-00000000000000000000000000000000-0123456789abcdef-01",
		"00-zz345678901234567890123456789012-0123456789abcdef-01",
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("malformed traceparent %q accepted", bad)
		}
	}
}

func TestParentChildAndCollect(t *testing.T) {
	tr := New(64)
	root := tr.Start("root", Context{})
	child := root.Child("child")
	child.Set("k", "v")
	grand := child.Child("grand")
	grand.End()
	child.End()
	root.Instant("mark")
	root.End()

	spans := tr.Collect(root.TraceID())
	if len(spans) != 4 {
		t.Fatalf("collected %d spans, want 4", len(spans))
	}
	roots, orphans := BuildTree(spans)
	if orphans != 0 {
		t.Fatalf("%d orphans in a complete tree", orphans)
	}
	if len(roots) != 1 || roots[0].Name != "root" {
		t.Fatalf("roots = %+v", roots)
	}
	var names []string
	for _, c := range roots[0].Children {
		names = append(names, c.Name)
	}
	if len(names) != 2 {
		t.Fatalf("root children = %v, want child+mark", names)
	}
	var childNode *Node
	for _, c := range roots[0].Children {
		if c.Name == "child" {
			childNode = c
		}
	}
	if childNode == nil || len(childNode.Children) != 1 || childNode.Children[0].Name != "grand" {
		t.Fatalf("child subtree wrong: %+v", childNode)
	}
	if childNode.Attr("k") != "v" {
		t.Fatalf("attr lost: %v", childNode.Attrs)
	}
}

func TestOrphanDetection(t *testing.T) {
	tr := New(64)
	root := tr.Start("root", Context{})
	// A child whose parent context is fabricated (parent never commits).
	fake := Context{Trace: root.TraceID(), Span: SpanID{9, 9, 9, 9, 9, 9, 9, 9}}
	orphan := tr.Start("lost", fake)
	orphan.End()
	root.End()
	_, orphans := BuildTree(tr.Collect(root.TraceID()))
	if orphans != 1 {
		t.Fatalf("orphans = %d, want 1", orphans)
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(4)
	first := tr.Start("first", Context{})
	first.End()
	for i := 0; i < 8; i++ {
		s := tr.Start("filler", Context{})
		s.End()
	}
	if tr.Len() != 4 {
		t.Fatalf("ring holds %d, want 4", tr.Len())
	}
	if got := tr.Collect(first.TraceID()); len(got) != 0 {
		t.Fatalf("evicted span still collectable: %+v", got)
	}
	started, ended := tr.Counts()
	if started != 9 || ended != 9 {
		t.Fatalf("counts = %d/%d, want 9/9", started, ended)
	}
}

// TestEngineBudget: the ring bounds the TOTAL engine events it retains;
// once over DefaultEngineBudget the oldest spans shed their payload
// (span survives, detail goes), newest-first retention wins.
func TestEngineBudget(t *testing.T) {
	tr := New(64)
	const perSpan = DefaultEngineBudget / 4 // 5 spans = 1.25× the budget
	events := make([]EngineEvent, perSpan)
	var ids []TraceID
	for i := 0; i < 5; i++ {
		s := tr.Start("run", Context{})
		s.AttachEngine(EventList(events))
		s.End()
		ids = append(ids, s.TraceID())
	}
	held := 0
	withEngine := make(map[int]bool)
	for i, id := range ids {
		spans := tr.Collect(id)
		if len(spans) != 1 {
			t.Fatalf("trace %d: %d spans, want 1 (span itself must survive shedding)", i, len(spans))
		}
		held += spans[0].EngineLen()
		withEngine[i] = spans[0].EngineLen() > 0
	}
	if held > DefaultEngineBudget {
		t.Fatalf("ring retains %d engine events, budget %d", held, DefaultEngineBudget)
	}
	if withEngine[0] {
		t.Fatal("oldest span kept its engine payload; should shed oldest-first")
	}
	if !withEngine[4] {
		t.Fatal("newest span lost its engine payload; newest must be kept")
	}
}

// TestNilSafety: every Span and Tracer method must be a no-op on nil,
// so call sites behind disabled tracing carry no conditionals.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x", Context{})
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	s.Set("k", 1)
	s.AttachEngine(nil)
	s.Instant("i")
	c := s.Child("c")
	c.ChildAt("d", time.Now()).End()
	s.End()
	if s.Context().Valid() {
		t.Fatal("nil span has a valid context")
	}
}

// TestConcurrentEmission hammers one tracer from many goroutines — the
// scheduler-worker pattern — and is meaningful under -race.
func TestConcurrentEmission(t *testing.T) {
	tr := New(256)
	root := tr.Start("root", Context{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := tr.StartAt("work", root.Context(), time.Now())
				s.Set("worker", g)
				s.Instant("tick")
				s.End()
			}
		}(g)
	}
	wg.Wait()
	root.End()
	if tr.Len() != 256 {
		t.Fatalf("ring holds %d, want full 256", tr.Len())
	}
	started, ended := tr.Counts()
	if started != 1+8*200 || ended != 1+8*200*2 {
		t.Fatalf("counts %d/%d", started, ended)
	}
}

func TestExplicitTimes(t *testing.T) {
	tr := New(16)
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	s := tr.StartAt("s", Context{}, t0)
	s.EndAt(t0.Add(250 * time.Millisecond))
	spans := tr.Collect(s.TraceID())
	if len(spans) != 1 {
		t.Fatal("span not committed")
	}
	if d := spans[0].Duration(); d != 250*time.Millisecond {
		t.Fatalf("duration %v", d)
	}
	qw := tr.StartAt("queue.wait", Context{Trace: spans[0].Trace, Span: spans[0].ID}, t0)
	qw.EndAt(t0.Add(time.Second))
	if got := tr.Collect(s.TraceID()); len(got) != 2 {
		t.Fatalf("backfilled span lost: %d", len(got))
	}
}
