package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"wormmesh/internal/fault"
	"wormmesh/internal/topology"
)

// ringAlg routes every message clockwise around a fixed cycle of
// nodes. With a single virtual channel per link it manufactures the
// textbook wormhole deadlock: four messages, each holding the channel
// the previous one wants.
type ringAlg struct {
	mesh topology.Topology
	next map[topology.NodeID]topology.NodeID
	vcs  int
}

func newRingAlg(mesh topology.Topology, loop []topology.Coord, vcs int) ringAlg {
	next := make(map[topology.NodeID]topology.NodeID, len(loop))
	for i, c := range loop {
		next[mesh.ID(c)] = mesh.ID(loop[(i+1)%len(loop)])
	}
	return ringAlg{mesh: mesh, next: next, vcs: vcs}
}

func (a ringAlg) Name() string           { return "test-ring" }
func (a ringAlg) NumVCs() int            { return a.vcs }
func (a ringAlg) InitMessage(m *Message) {}
func (a ringAlg) Candidates(m *Message, node topology.NodeID, out *CandidateSet) {
	if node == m.Dst {
		return
	}
	nxt, ok := a.next[node]
	if !ok {
		return
	}
	cur, to := a.mesh.CoordOf(node), a.mesh.CoordOf(nxt)
	var d topology.Direction
	switch {
	case to.X > cur.X:
		d = topology.East
	case to.X < cur.X:
		d = topology.West
	case to.Y > cur.Y:
		d = topology.North
	default:
		d = topology.South
	}
	out.AddVCs(0, d, 0, a.vcs-1)
}
func (a ringAlg) Advance(m *Message, from topology.NodeID, ch Channel) { m.Hops++ }

// deadlockNetwork wedges four messages into a 4-cycle on the square
// `loop` (clockwise order) of the given mesh: message i travels two
// hops, so after its first hop its header owns loop[i+1]'s input VC
// and waits for loop[i+2]'s, which message i+1 owns. Returns the
// network once all four headers are wedged.
func deadlockNetwork(t *testing.T, mesh topology.Topology, f *fault.Model, loop []topology.Coord, cfg Config) (*Network, []*Message) {
	t.Helper()
	n := newTestNetwork(t, mesh, f, newRingAlg(mesh, loop, 1), cfg, 1)
	msgs := make([]*Message, 4)
	for i := range msgs {
		msgs[i] = offer(t, n, int64(i+1), loop[i], loop[(i+2)%4], 4)
	}
	for i := 0; i < 40; i++ {
		n.Step()
	}
	for _, m := range msgs {
		if m.Delivered() || m.Killed {
			t.Fatalf("message %d escaped the intended deadlock", m.ID)
		}
	}
	return n, msgs
}

func deadlockConfig() Config {
	cfg := testConfig()
	cfg.NumVCs = 1
	cfg.BufDepth = 8 // whole 4-flit message drains off the source
	cfg.DeadlockCycles = 1 << 20
	cfg.MessageStallCycles = 0
	return cfg
}

// TestDiagnoseFindsWaitCycle wedges the canonical 4-message cycle and
// checks that Diagnose names it exactly: all four messages fully
// blocked, one cycle with the four IDs, each member holding the VC the
// previous one wants.
func TestDiagnoseFindsWaitCycle(t *testing.T) {
	mesh := topology.New(2, 2)
	loop := []topology.Coord{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
	n, _ := deadlockNetwork(t, mesh, nil, loop, deadlockConfig())

	pm := n.Diagnose()
	if pm.Trigger != TriggerDiagnose {
		t.Errorf("Trigger = %q, want %q", pm.Trigger, TriggerDiagnose)
	}
	if pm.Victim != -1 {
		t.Errorf("Victim = %d, want -1 for on-demand diagnosis", pm.Victim)
	}
	if pm.InFlight != 4 {
		t.Errorf("InFlight = %d, want 4", pm.InFlight)
	}
	if len(pm.Blocked) != 4 {
		t.Fatalf("Blocked = %d messages, want 4: %+v", len(pm.Blocked), pm.Blocked)
	}
	owner := map[int64]int64{} // waited-on owner per message
	for _, b := range pm.Blocked {
		if !b.FullyBlocked {
			t.Errorf("msg#%d not fully blocked", b.ID)
		}
		if b.Injecting {
			t.Errorf("msg#%d reported as injecting, holds resources", b.ID)
		}
		if len(b.Holds) == 0 {
			t.Errorf("msg#%d holds no VCs", b.ID)
			continue
		}
		head := b.Holds[len(b.Holds)-1]
		if head.Routed {
			t.Errorf("msg#%d head VC is routed — not the wait point", b.ID)
		}
		if head.Node != b.WaitNode || head.Port != b.WaitPort || head.VC != b.WaitVC {
			t.Errorf("msg#%d wait point %d %v/vc%d does not match head holding %+v",
				b.ID, b.WaitNode, b.WaitPort, b.WaitVC, head)
		}
		if len(b.Waits) != 1 {
			t.Fatalf("msg#%d has %d candidate waits, want 1 (single VC, single direction)", b.ID, len(b.Waits))
		}
		w := b.Waits[0]
		if w.Free || w.Down == topology.Invalid {
			t.Errorf("msg#%d wait %+v should be held and reachable", b.ID, w)
		}
		owner[b.ID] = w.Owner
	}
	// The wait graph is the 4-cycle 1→2→3→4→1.
	for id := int64(1); id <= 4; id++ {
		want := id%4 + 1
		if owner[id] != want {
			t.Errorf("msg#%d waits on msg#%d, want msg#%d", id, owner[id], want)
		}
	}
	if len(pm.Cycles) != 1 {
		t.Fatalf("Cycles = %+v, want exactly one", pm.Cycles)
	}
	c := pm.Cycles[0]
	if len(c.Members) != 4 {
		t.Fatalf("cycle members = %v, want the four messages", c.Members)
	}
	for i, id := range c.Members {
		if id != int64(i+1) {
			t.Errorf("cycle members = %v, want [1 2 3 4]", c.Members)
			break
		}
	}
	if c.FRing {
		t.Error("cycle flagged as f-ring involved on a fault-free mesh")
	}

	var buf bytes.Buffer
	if err := pm.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"trigger=diagnose",
		"wait cycle 1/1: 4 messages: msg#1 msg#2 msg#3 msg#4",
		"FULLY BLOCKED",
		"chain:",
		"held by msg#",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestDiagnoseHealthyNetwork checks the negative space: a progressing
// network reports no wait cycles, and a drained network nothing at all.
func TestDiagnoseHealthyNetwork(t *testing.T) {
	mesh := topology.New(4, 4)
	n := newTestNetwork(t, mesh, nil, xyAlg{mesh: mesh, vcs: 4}, testConfig(), 1)
	a := offer(t, n, 1, topology.Coord{X: 0, Y: 0}, topology.Coord{X: 3, Y: 3}, 20)
	b := offer(t, n, 2, topology.Coord{X: 3, Y: 0}, topology.Coord{X: 0, Y: 3}, 20)
	for i := 0; i < 5; i++ {
		n.Step()
		if pm := n.Diagnose(); len(pm.Cycles) != 0 {
			t.Fatalf("cycle %d: healthy network reported wait cycles: %+v", n.Cycle(), pm.Cycles)
		}
	}
	stepUntilDelivered(t, n, a, 200)
	stepUntilDelivered(t, n, b, 200)
	pm := n.Diagnose()
	if len(pm.Blocked) != 0 || len(pm.Cycles) != 0 || pm.InFlight != 0 {
		t.Errorf("drained network diagnosis = %+v, want empty", pm)
	}
}

// TestDiagnoseInjectionStarvation: a fifth message queued behind the
// deadlock is starved (fully blocked at its source) but holds nothing,
// so it must appear in the report WITHOUT joining the cycle.
func TestDiagnoseInjectionStarvation(t *testing.T) {
	mesh := topology.New(2, 2)
	loop := []topology.Coord{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
	n, _ := deadlockNetwork(t, mesh, nil, loop, deadlockConfig())

	late := offer(t, n, 5, loop[0], loop[2], 4)
	for i := 0; i < 20; i++ {
		n.Step()
	}
	if late.Delivered() {
		t.Fatal("late message should be starved behind the deadlock")
	}
	pm := n.Diagnose()
	var found bool
	for _, b := range pm.Blocked {
		if b.ID != 5 {
			continue
		}
		found = true
		if !b.Injecting {
			t.Error("msg#5 should be waiting to inject")
		}
		if b.WaitNode != n.Topo.ID(loop[0]) {
			t.Errorf("msg#5 wait node = %d, want its source", b.WaitNode)
		}
		if len(b.Holds) != 0 {
			t.Errorf("msg#5 holds %+v, want nothing", b.Holds)
		}
		if !b.FullyBlocked {
			t.Error("msg#5 should be fully blocked (first hop VC is owned)")
		}
	}
	if !found {
		t.Fatalf("starved injector missing from report: %+v", pm.Blocked)
	}
	if len(pm.Cycles) != 1 || len(pm.Cycles[0].Members) != 4 {
		t.Fatalf("Cycles = %+v, want the original 4-cycle only", pm.Cycles)
	}
	for _, id := range pm.Cycles[0].Members {
		if id == 5 {
			t.Error("starved injector wrongly included in the wait cycle")
		}
	}
}

// TestDiagnoseClassifiesFRing builds the same 4-cycle on a square that
// touches the f-ring of a faulted corner node and checks the cycle is
// flagged as f-ring involved.
func TestDiagnoseClassifiesFRing(t *testing.T) {
	mesh := topology.New(4, 4)
	f, err := fault.New(mesh, []topology.NodeID{mesh.ID(topology.Coord{X: 0, Y: 0})})
	if err != nil {
		t.Fatal(err)
	}
	// Square (1,0)-(2,0)-(2,1)-(1,1): nodes (1,0) and (1,1) sit on the
	// faulted corner's f-ring.
	loop := []topology.Coord{{X: 1, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 1}, {X: 1, Y: 1}}
	if !f.OnAnyRing(mesh.ID(loop[0])) {
		t.Fatal("test premise broken: loop[0] not on the f-ring")
	}
	n, _ := deadlockNetwork(t, mesh, f, loop, deadlockConfig())
	pm := n.Diagnose()
	if len(pm.Cycles) != 1 {
		t.Fatalf("Cycles = %+v, want one", pm.Cycles)
	}
	if !pm.Cycles[0].FRing {
		t.Error("cycle touching f-ring nodes not flagged FRing")
	}
	var buf bytes.Buffer
	if err := pm.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "[f-ring involved]") {
		t.Errorf("report missing the f-ring tag:\n%s", buf.String())
	}
}

// TestWatchdogPostmortemHook wedges the 4-cycle with a tight watchdog
// and verifies the firing sequence: the hook receives a watchdog-
// triggered report that names the cycle and the recovery victim, and —
// with a flight recorder installed — carries the recent event tail.
func TestWatchdogPostmortemHook(t *testing.T) {
	mesh := topology.New(2, 2)
	loop := []topology.Coord{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
	cfg := deadlockConfig()
	cfg.DeadlockCycles = 50
	n := newTestNetwork(t, mesh, nil, newRingAlg(mesh, loop, 1), cfg, 1)
	n.SetTracer(NewFlightRecorder(256))
	var reports []*Postmortem
	n.SetPostmortemHook(func(pm *Postmortem) { reports = append(reports, pm) })

	msgs := make([]*Message, 4)
	for i := range msgs {
		msgs[i] = offer(t, n, int64(i+1), loop[i], loop[(i+2)%4], 4)
	}
	for i := 0; i < 400 && len(reports) == 0; i++ {
		n.Step()
	}
	if len(reports) == 0 {
		t.Fatal("watchdog never fired the post-mortem hook")
	}
	pm := reports[0]
	if pm.Trigger != TriggerWatchdog {
		t.Errorf("Trigger = %q, want %q", pm.Trigger, TriggerWatchdog)
	}
	if pm.Victim < 1 || pm.Victim > 4 {
		t.Errorf("Victim = %d, want one of the wedged messages", pm.Victim)
	}
	if len(pm.Cycles) != 1 || len(pm.Cycles[0].Members) != 4 {
		t.Fatalf("watchdog report cycles = %+v, want the 4-cycle", pm.Cycles)
	}
	if len(pm.Recent) == 0 || pm.RecorderTotal == 0 {
		t.Error("flight recorder tail missing from the watchdog report")
	}
	var buf bytes.Buffer
	if err := pm.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"trigger=watchdog", "recovery victim: msg#", "engine events"} {
		if !strings.Contains(out, want) {
			t.Errorf("watchdog report missing %q:\n%s", want, out)
		}
	}
}

// TestDiagnoseIsReadOnly locks in that diagnosis never perturbs the
// simulation: running the deadlock scenario with a Diagnose every
// third cycle yields the same statistics as running it untouched. The
// loop's four messages are offered again whenever the network drains,
// so the wait cycle forms, is broken by the watchdog and re-forms.
func TestDiagnoseIsReadOnly(t *testing.T) {
	run := func(diagnose bool) Stats {
		mesh := topology.New(2, 2)
		loop := []topology.Coord{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
		cfg := deadlockConfig()
		cfg.DeadlockCycles = 60
		n := newTestNetwork(t, mesh, nil, newRingAlg(mesh, loop, 1), cfg, 1)
		id := int64(0)
		for i := 0; i < 500; i++ {
			if n.InFlight() == 0 {
				for k := 0; k < 4; k++ {
					id++
					offer(t, n, id, loop[k], loop[(k+2)%4], 4)
				}
			}
			n.Step()
			if diagnose && i%3 == 0 {
				_ = n.Diagnose()
			}
		}
		return n.Snapshot()
	}
	a, b := run(false), run(true)
	if a.DeadlockEvents < 2 {
		t.Fatalf("%d deadlock recoveries, want the wait cycle to recur", a.DeadlockEvents)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Diagnose perturbed the run:\n  without: %+v\n  with:    %+v", a, b)
	}
}
