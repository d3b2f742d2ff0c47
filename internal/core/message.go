package core

import (
	"fmt"

	"wormmesh/internal/topology"
)

// Message is one wormhole message: a fixed-length train of flits led by
// a header that carries all routing state. The engine moves flits; the
// routing algorithm reads and writes the routing-state fields.
type Message struct {
	ID     int64
	Src    topology.NodeID
	Dst    topology.NodeID
	Length int // flits, header and tail included

	// Timestamps, in cycles. -1 means "not yet".
	GenTime     int64 // generation (enqueue at the source)
	InjectTime  int64 // header flit leaves the source queue
	DeliverTime int64 // tail flit ejected at the destination

	// Routing state maintained by the algorithms via Advance.
	Hops       int32           // hops taken so far
	NegHops    int32           // negative (high→low color) hops taken
	Class      int32           // buffer class used by the last hop
	Cards      int32           // remaining bonus cards
	CardsSpent int32           // cumulative bonus cards spent
	Misroutes  int32           // non-minimal hops taken (Fully-Adaptive budget)
	DirClass   DirClass        // WE/EW/NS/SN, fixed at generation
	Subnet     uint8           // virtual subnetwork (Boura double-y discipline)
	Prev       topology.NodeID // node the header last came from

	// Boppana–Chalasani f-ring traversal state. RingIdx indexes the
	// fault model's Rings(); -1 when the message is routing normally.
	RingIdx int32
	RingCW  bool

	// Latency decomposition (telemetry.go): every cycle between
	// generation and tail delivery is attributed to exactly one of the
	// four disjoint buckets below; LatRing is an overlay counting the
	// cycles spent inside f-ring traversals. Always on — the accounting
	// is read-only, RNG-free and allocation-free.
	LatQueue   int64 // waiting in the source queue
	LatRoute   int64 // header awaiting VC allocation at a router
	LatBlocked int64 // routed but stalled (credits, switch, ejection)
	LatMoving  int64 // cycles in which at least one flit moved
	LatRing    int64 // cycles spent traversing f-rings (overlay)

	// Engine bookkeeping.
	flitsInjected int   // flits that have left the source queue
	lastMove      int64 // cycle of the message's last flit movement
	activeIdx     int32 // position in Network.active, -1 when not in flight
	acctFrom      int64 // last cycle already attributed (decomposition)
	acctMoved     int64 // cycle of the last accounted move, -1 never
	ringSince     int64 // cycle the open f-ring traversal began, -1 none
	blockedAt     int64 // 1 + cycle the header last failed VC allocation here, 0 none
	acctState     uint8 // wait bucket for unattributed cycles
	pooled        bool  // drawn from the network's arena; recycled on completion
	Killed        bool  // torn down by deadlock recovery
}

// NewMessage builds a message with timestamps and routing state
// cleared. The caller (traffic generator) sets GenTime; the routing
// algorithm's InitMessage fills the routing state. Messages built here
// are never recycled by the engine, so the caller may inspect them
// after delivery; sustained-load drivers should prefer
// Network.AcquireMessage, which recycles completed messages through the
// network's arena.
func NewMessage(id int64, src, dst topology.NodeID, length int) *Message {
	if length < 1 {
		panic(fmt.Sprintf("core: message length %d < 1", length))
	}
	return &Message{
		ID:          id,
		Src:         src,
		Dst:         dst,
		Length:      length,
		GenTime:     -1,
		InjectTime:  -1,
		DeliverTime: -1,
		RingIdx:     -1,
		Prev:        topology.Invalid,
		activeIdx:   -1,
		acctMoved:   -1,
		ringSince:   -1,
	}
}

// AcquireMessage returns a message initialized exactly like NewMessage
// but drawn from the network's free list when one is available. The
// engine recycles such messages automatically the moment they complete
// — tail delivered, killed by recovery, or refused by Offer — so the
// caller must not retain a reference past those events. Drivers that
// inspect messages after completion (tests, single-shot probes) should
// use NewMessage instead; the two kinds coexist freely in one network.
func (n *Network) AcquireMessage(id int64, src, dst topology.NodeID, length int) *Message {
	k := len(n.msgPool) - 1
	if k < 0 {
		m := NewMessage(id, src, dst, length)
		m.pooled = true
		return m
	}
	if length < 1 {
		panic(fmt.Sprintf("core: message length %d < 1", length))
	}
	m := n.msgPool[k]
	n.msgPool = n.msgPool[:k]
	*m = Message{
		ID:          id,
		Src:         src,
		Dst:         dst,
		Length:      length,
		GenTime:     -1,
		InjectTime:  -1,
		DeliverTime: -1,
		RingIdx:     -1,
		Prev:        topology.Invalid,
		activeIdx:   -1,
		acctMoved:   -1,
		ringSince:   -1,
		pooled:      true,
	}
	return m
}

// recycle returns a pooled message to the free list. Messages built
// with NewMessage pass through untouched. Clearing pooled first makes a
// double recycle a no-op instead of a pool corruption.
func (n *Network) recycle(m *Message) {
	if m == nil || !m.pooled {
		return
	}
	m.pooled = false
	n.msgPool = append(n.msgPool, m)
}

// PoolSize returns the number of idle messages in the network's arena
// (observability for tests and memory accounting).
func (n *Network) PoolSize() int { return len(n.msgPool) }

// Delivered reports whether the tail has reached the destination.
func (m *Message) Delivered() bool { return m.DeliverTime >= 0 }

// Latency returns the message latency in cycles from generation to
// tail delivery (the paper's "average message latency" includes source
// queueing). It panics when the message is not yet delivered.
func (m *Message) Latency() int64 {
	if !m.Delivered() {
		panic("core: Latency on undelivered message")
	}
	return m.DeliverTime - m.GenTime
}

// NetworkLatency returns the cycles spent inside the network, from
// header injection to tail delivery.
func (m *Message) NetworkLatency() int64 {
	if !m.Delivered() || m.InjectTime < 0 {
		panic("core: NetworkLatency on undelivered message")
	}
	return m.DeliverTime - m.InjectTime
}

// String renders a compact description for traces and tests.
func (m *Message) String() string {
	return fmt.Sprintf("msg#%d %d->%d len=%d hops=%d class=%d", m.ID, m.Src, m.Dst, m.Length, m.Hops, m.Class)
}

// Flit is one flow-control unit of a message. Index 0 is the header;
// Index == Length-1 is the tail. A one-flit message's single flit is
// both header and tail. Flits are computed values derived from a VC's
// (first, count) window — the engine never stores them.
type Flit struct {
	Msg   *Message
	Index int32
}

// Head reports whether this is the header flit.
func (f Flit) Head() bool { return f.Index == 0 }

// Tail reports whether this is the tail flit.
func (f Flit) Tail() bool { return int(f.Index) == f.Msg.Length-1 }
