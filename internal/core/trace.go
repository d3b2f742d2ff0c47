package core

import "wormmesh/internal/topology"

// KillCause distinguishes the three watchdog mechanisms that can tear a
// message down. The paper's deadlock-recovery accounting needs them kept
// apart: a global recovery means the whole network stopped (a candidate
// true deadlock), a stall kill means one message sat still while the
// rest made progress (a local cycle or starvation), and a livelock kill
// means a header circled past the hop budget without ever blocking.
type KillCause uint8

// Kill causes.
const (
	// KillCauseGlobal is the global watchdog: no flit anywhere moved for
	// Config.DeadlockCycles, and this message was the chosen victim.
	KillCauseGlobal KillCause = iota
	// KillCauseStall is the per-message check: the message's flits sat
	// still for Config.MessageStallCycles while the network moved.
	KillCauseStall
	// KillCauseLivelock is the hop budget: the header exceeded
	// Config.MaxHops.
	KillCauseLivelock
)

var killCauseNames = [...]string{"global", "stall", "livelock"}

// String returns the cause mnemonic used in traces and reports.
func (c KillCause) String() string {
	if int(c) < len(killCauseNames) {
		return killCauseNames[c]
	}
	return "unknown"
}

// Tracer observes engine events. All callbacks run synchronously on
// the simulation goroutine; implementations must be fast and must not
// mutate the network. The network has one observer slot: a nil tracer
// (the default) costs one branch per event. The FlightRecorder is the
// production observer; tests plug their own Tracers in to check
// wormhole ordering, fault avoidance and similar properties.
type Tracer interface {
	// MessageInjected fires when a header flit leaves its source
	// queue.
	MessageInjected(m *Message, cycle int64)
	// HeaderRouted fires when a header wins an output channel at a
	// node (including the injection grant at the source).
	HeaderRouted(m *Message, node topology.NodeID, ch Channel, cycle int64)
	// FlitMoved fires for every flit transfer across a link.
	FlitMoved(f Flit, from topology.NodeID, ch Channel, cycle int64)
	// MessageDelivered fires when the tail flit is consumed at the
	// destination.
	MessageDelivered(m *Message, cycle int64)
	// MessageKilled fires when deadlock/livelock recovery tears a
	// message down; cause says which watchdog mechanism fired.
	MessageKilled(m *Message, cause KillCause, cycle int64)
	// WatchdogFired fires when the GLOBAL watchdog trips (no flit moved
	// for Config.DeadlockCycles), before the victim is torn down.
	// victim is the message recovery chose, or nil when no message
	// held network resources.
	WatchdogFired(victim *Message, cycle int64)
}

// SetTracer installs (or, with nil, removes) the network's event
// observer. Reset removes it.
func (n *Network) SetTracer(t Tracer) { n.tracer = t }

// NopTracer implements Tracer with empty methods; embed it to observe
// a subset of events.
type NopTracer struct{}

// MessageInjected implements Tracer.
func (NopTracer) MessageInjected(*Message, int64) {}

// HeaderRouted implements Tracer.
func (NopTracer) HeaderRouted(*Message, topology.NodeID, Channel, int64) {}

// FlitMoved implements Tracer.
func (NopTracer) FlitMoved(Flit, topology.NodeID, Channel, int64) {}

// MessageDelivered implements Tracer.
func (NopTracer) MessageDelivered(*Message, int64) {}

// MessageKilled implements Tracer.
func (NopTracer) MessageKilled(*Message, KillCause, int64) {}

// WatchdogFired implements Tracer.
func (NopTracer) WatchdogFired(*Message, int64) {}
