package core

import (
	"wormmesh/internal/topology"
)

// vcState is one input virtual channel of a router. A VC is owned by a
// message from the moment the upstream router wins it in VC allocation
// until the message's tail flit leaves the buffer; the buffer therefore
// only ever holds flits of the owning message, with consecutive flit
// indices. That invariant lets the buffer be represented as a compact
// (first, count) window over the owning message instead of a
// heap-allocated []Flit: flits are computed values, not stored structs,
// and a vcState is a flat, pointer-light struct that packs densely in
// the router's per-port arrays.
type vcState struct {
	owner  *Message
	routed bool    // header has been assigned an output channel
	out    Channel // valid when routed
	port   int8    // which input port this VC belongs to
	idx    uint8   // VC index within the port

	// dvc caches the downstream input VC that out feeds, resolved once
	// when the output channel is assigned. The healthy-neighbor table is
	// immutable and router VC slices are never reallocated, so the
	// pointer stays valid for as long as routed does; the switch phase
	// reads it instead of recomputing downstream() every cycle. nil when
	// out is the Local (ejection) port, which has no downstream VC.
	dvc *vcState
	// up is the inverse of dvc: the upstream VC whose dvc is this one,
	// nil when the feeder is an injection slot or has been released. A
	// VC has exactly one feeder, so a pop here returns a credit to up
	// and nowhere else.
	up *vcState

	// Flit window: the buffer holds flits [first, first+count) of the
	// owning message. count is at most Config.BufDepth; first is only
	// meaningful while count > 0 or after the first arrival.
	first int32
	count int32

	acquired int64 // cycle ownership began (utilization accounting)

	activeIdx int32           // position in the router's active list, -1 if free
	readyIdx  int32           // position in router.ready, -1 if not a ready sender
	pendIdx   int32           // position in router.pend, -1 if no header awaits routing
	node      topology.NodeID // the router this VC belongs to
}

// pushBack appends the flit with message index idx to the window. The
// engine only ever delivers the owner's next consecutive flit, so the
// window stays contiguous by construction.
func (s *vcState) pushBack(idx int32) {
	if s.count == 0 {
		s.first = idx
	}
	s.count++
}

// popFront removes and returns the head flit — a computed value over
// the owning message, never a stored struct.
func (s *vcState) popFront() Flit {
	f := Flit{Msg: s.owner, Index: s.first}
	s.first++
	s.count--
	return f
}

// headIsHeader reports whether the buffer head is the message header.
func (s *vcState) headIsHeader() bool { return s.first == 0 }

// popFrontMsg removes the head of a source queue in place, preserving
// the backing array. Re-slicing with q[1:] would slide the slice start
// forward forever, so every later append would eventually reallocate —
// the copy-down keeps steady-state queue churn allocation-free (the
// queue is bounded by Config.MaxSourceQueue, so the copy is O(small)).
func popFrontMsg(q []*Message) []*Message {
	copy(q, q[1:])
	q[len(q)-1] = nil // drop the reference so the arena solely owns it
	return q[:len(q)-1]
}

// injState tracks the message currently streaming out of a node's
// source queue, together with the first-hop channel it won and the
// downstream input VC that channel feeds (cached like vcState.dvc).
type injState struct {
	msg *Message
	out Channel
	dvc *vcState
}

// localChannel encodes one of a router's input VCs (port, vc) as
// port*NumVCs + vc: the index into router.vcs.
type localChannel = int32

// router is the per-node switching element: four buffered input ports
// (one per incoming physical channel) with Config.NumVCs virtual
// channels each, a source queue on the injection port, and an
// unbuffered ejection port.
type router struct {
	id topology.NodeID

	// vcs holds the router's input VCs as one flat slice indexed by
	// localChannel code (port*NumVCs + vc) for port = East..South, so
	// vcAt is a single bounds-checked load with no division. Input
	// ports are named after the side of the router the link physically
	// enters: a flit sent East by the western neighbor arrives on this
	// router's West port, so a message sent through output channel ch
	// of node u lands in vc(ch.Dir.Opposite(), ch.VC) of the neighbor.
	vcs []vcState

	srcQ []*Message
	inj  injState

	// active lists the occupied input VCs as localChannel codes so the
	// per-cycle loops skip idle channels. Swap-remove keeps it dense;
	// activeIdx back-references make removal O(1).
	active []localChannel

	// ready and pend are the incremental switch- and routing-phase
	// work sets, both subsets of active kept in step at every mutation
	// point (Network.refresh), unordered with swap-remove and back
	// indices (readyIdx, pendIdx). ready holds the routed, non-empty VCs
	// that can send this cycle: ejecting, or with a free slot in their
	// downstream VC. pend holds the unrouted VCs whose header awaits an
	// output. Their capacity follows active's, so appends never allocate
	// beyond what the active list already did.
	ready []*vcState
	pend  []*vcState

	// crossings counts flits that traversed this router's crossbar
	// inside the measurement window (the traffic-load metric).
	crossings int64
}

// vcAt resolves a localChannel code to its vcState — a direct index
// into the flat per-router slice.
func (r *router) vcAt(code localChannel) *vcState {
	return &r.vcs[code]
}

// vc resolves (port, vc index) to its vcState.
func (r *router) vc(port topology.Direction, vcIdx int, numVCs int) *vcState {
	return &r.vcs[int(port)*numVCs+vcIdx]
}

// claim marks VC (port, vcIdx) owned by m and registers it active.
func (r *router) claim(port topology.Direction, vcIdx int, m *Message, cycle int64, numVCs int) *vcState {
	s := r.vc(port, vcIdx, numVCs)
	s.owner = m
	s.routed = false
	s.acquired = cycle
	s.first = 0
	s.count = 0
	s.activeIdx = int32(len(r.active))
	r.active = append(r.active, int32(port)*int32(numVCs)+int32(vcIdx))
	if cap(r.ready) < cap(r.active) {
		r.ready = append(make([]*vcState, 0, cap(r.active)), r.ready...)
		r.pend = append(make([]*vcState, 0, cap(r.active)), r.pend...)
	}
	return s
}

// release frees an owned VC and drops it from the active list and the
// work sets, unlinking it from its downstream VC's feeder pointer.
func (r *router) release(s *vcState) {
	idx := s.activeIdx
	last := int32(len(r.active) - 1)
	if idx != last {
		moved := r.active[last]
		r.active[idx] = moved
		r.vcAt(moved).activeIdx = idx
	}
	r.active = r.active[:last]
	r.setReady(s, false)
	r.setPend(s, false)
	if s.dvc != nil && s.dvc.up == s {
		s.dvc.up = nil
	}
	s.owner = nil
	s.routed = false
	s.dvc = nil
	s.up = nil
	s.activeIdx = -1
	s.first = 0
	s.count = 0
}

// setReady inserts s into, or swap-removes it from, the ready set.
func (r *router) setReady(s *vcState, want bool) {
	if want == (s.readyIdx >= 0) {
		return
	}
	if want {
		s.readyIdx = int32(len(r.ready))
		r.ready = append(r.ready, s)
		return
	}
	last := len(r.ready) - 1
	moved := r.ready[last]
	r.ready[s.readyIdx] = moved
	moved.readyIdx = s.readyIdx
	r.ready = r.ready[:last]
	s.readyIdx = -1
}

// setPend is setReady for the pending-header set.
func (r *router) setPend(s *vcState, want bool) {
	if want == (s.pendIdx >= 0) {
		return
	}
	if want {
		s.pendIdx = int32(len(r.pend))
		r.pend = append(r.pend, s)
		return
	}
	last := len(r.pend) - 1
	moved := r.pend[last]
	r.pend[s.pendIdx] = moved
	moved.pendIdx = s.pendIdx
	r.pend = r.pend[:last]
	s.pendIdx = -1
}

// byActive sorts a small work-set snapshot into active-list order, the
// order the draw-order contract enumerates VCs in. Insertion sort: the
// sets hold a handful of VCs.
func byActive(vs []*vcState) {
	for i := 1; i < len(vs); i++ {
		v := vs[i]
		j := i
		for ; j > 0 && vs[j-1].activeIdx > v.activeIdx; j-- {
			vs[j] = vs[j-1]
		}
		vs[j] = v
	}
}
