package core

import (
	"fmt"
	"math/rand"

	"wormmesh/internal/fault"
	"wormmesh/internal/topology"
)

// Network is one simulated wormhole-switched mesh: routers, link state,
// in-flight messages, and measurement counters. A Network instance is
// not safe for concurrent use; run independent simulations in parallel
// instead (see internal/sweep).
//
// Memory layout: all per-cycle state lives in dense, index-addressed
// slices — the in-flight message set, the per-router active-VC lists,
// and the (first, count) flit windows — so a steady-state Step
// performs zero heap allocations. See DESIGN.md "Memory layout &
// determinism contract".
type Network struct {
	Topo   topology.Topology
	Faults *fault.Model
	Alg    Algorithm
	Cfg    Config

	rng     *rand.Rand
	routers []router
	cycle   int64

	// nbr is the flattened healthy-neighbor table:
	// nbr[int(id)*NumDirs + int(dir)] is id's neighbor in dir, or
	// Invalid when the link leaves the mesh or ends at a faulty node.
	// The fault model is immutable after construction, so the table is
	// built once and turns the hot downstream() lookup into a single
	// load instead of coordinate arithmetic plus a fault probe.
	nbr []topology.NodeID

	lastGlobalMove int64
	lastStallScan  int64

	// active is the dense in-flight message set. Messages carry their
	// index (Message.activeIdx) so removal is O(1) swap-remove — the
	// same intrusive pattern router.active uses — and iteration order
	// is deterministic.
	active []*Message

	// msgPool is the message arena: completed pooled messages
	// (delivered, killed, or refused) are recycled here instead of
	// churning the garbage collector. See AcquireMessage.
	msgPool []*Message

	// busy is the dirty-router set (see worklist.go): bit i set ⇔
	// router i holds any engine state (source queue, injection in
	// progress, or owned VCs). busyCount is its population; work is the
	// reusable ascending-order snapshot the phases iterate.
	busy      []uint64
	busyCount int
	work      []topology.NodeID

	stats      Stats
	statsStart int64

	// Per-link congestion counters (telemetry.go), LinkID-indexed; all
	// nil unless Cfg.ChannelTelemetry — the nil check IS the feature
	// flag, hoisted out of the inner loops where possible.
	linkFlits   []int64
	linkBusy    []int64
	linkBlocked []int64
	linkOnRing  []bool

	// Observation. tracer is the one event observer the engine
	// branches on per event (nil = disabled, one branch); in production
	// it is the FlightRecorder. postmortemFn, when set, receives a
	// Diagnose() report each time the global watchdog fires, before the
	// victim is torn down.
	tracer       Tracer
	postmortemFn func(*Postmortem)

	// Reused scratch buffers (inner-loop allocation avoidance).
	cands    CandidateSet
	freeCh   []Channel
	sameCh   []Channel
	requests []request
	moves    []move
	// vcBuf is the current router's pend set sorted into active-list
	// order. sendq buckets its ready set by output direction, each
	// bucket sorted the same way; sendVCs is one output's sender list
	// drawn from a bucket, with nil marking the injection slot. All are
	// per-router scratch.
	vcBuf    []*vcState
	sendq    [NumPorts][]*vcState
	sendVCs  []*vcState
	victims  []victim
	outOrder [NumPorts]topology.Direction
	dirBuf   []topology.Direction
	msgSeq   int64

	// freed[id] is 1 + the last cycle in which router id released an
	// input VC, 0 if never: the only event that can turn a failed VC
	// allocation next door into a successful one (routingPhase).
	freed []int64

	// Validator scratch (epoch-stamped, never cleared): valSeen[code]
	// == valEpoch marks localChannel code active in the router under
	// inspection.
	valSeen  []int64
	valEpoch int64
}

// request identifies a header awaiting an output channel: either an
// input VC (port < InjectPort) or the head of the source queue.
type request struct {
	node topology.NodeID
	port int8 // 0..3 = input port, InjectPort = source queue head
	vc   uint8
}

type moveKind uint8

const (
	moveLink moveKind = iota
	moveInject
	moveEject
)

// move is a staged flit transfer, committed at end of cycle so that all
// decisions within one cycle observe the same start-of-cycle state.
type move struct {
	kind moveKind
	node topology.NodeID // router whose crossbar the flit traverses
	port int8            // source input port (moveLink/moveEject)
	vc   uint8
}

// NumPorts re-exported locally for loop bounds.
const NumPorts = topology.NumPorts

// InjectPort aliases topology.InjectPort for readability inside core.
const InjectPort = topology.InjectPort

// NewNetwork assembles a network over the given mesh, fault pattern and
// routing algorithm. The algorithm's NumVCs must not exceed
// cfg.NumVCs; the surplus channels, if any, simply stay idle so that
// hardware cost comparisons remain fair.
func NewNetwork(m topology.Topology, f *fault.Model, alg Algorithm, cfg Config, rng *rand.Rand) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.StallScanInterval <= 0 {
		cfg.StallScanInterval = 1024 // historical hardcoded cadence
	}
	if f == nil {
		f = fault.None(m)
	}
	if f.Topo != m {
		return nil, fmt.Errorf("core: fault model built for %v, network is %v", f.Topo, m)
	}
	if alg.NumVCs() > cfg.NumVCs {
		return nil, fmt.Errorf("core: algorithm %s needs %d VCs, config provides %d", alg.Name(), alg.NumVCs(), cfg.NumVCs)
	}
	n := &Network{
		Topo:           m,
		Faults:         f,
		Alg:            alg,
		Cfg:            cfg,
		rng:            rng,
		routers:        make([]router, m.NodeCount()),
		valSeen:        make([]int64, topology.NumDirs*cfg.NumVCs),
		lastGlobalMove: 0,
	}
	for i := range n.routers {
		r := &n.routers[i]
		r.id = topology.NodeID(i)
		r.vcs = make([]vcState, topology.NumDirs*cfg.NumVCs)
		for code := range r.vcs {
			s := &r.vcs[code]
			s.activeIdx = -1
			s.readyIdx = -1
			s.pendIdx = -1
			s.node = r.id
			s.port = int8(code / cfg.NumVCs)
			s.idx = uint8(code % cfg.NumVCs)
		}
	}
	n.freed = make([]int64, m.NodeCount())
	n.busy = make([]uint64, (m.NodeCount()+63)/64)
	n.work = make([]topology.NodeID, 0, m.NodeCount())
	n.nbr = make([]topology.NodeID, m.NodeCount()*topology.NumDirs)
	for i := range n.routers {
		id := topology.NodeID(i)
		for d := topology.Direction(0); d < topology.NumDirs; d++ {
			nb := m.NeighborID(id, d)
			if nb != topology.Invalid && f.IsFaulty(nb) {
				nb = topology.Invalid
			}
			n.nbr[i*topology.NumDirs+int(d)] = nb
		}
	}
	n.stats.init(cfg.NumVCs, m.NodeCount())
	if cfg.ChannelTelemetry {
		n.initLinkTelemetry()
	}
	return n, nil
}

// Reset rebinds the network to a new fault model, routing algorithm and
// RNG without reallocating any of its dense state: routers, VC arrays,
// the neighbor table, the message arena and every scratch buffer are
// retained. After Reset the network is observably indistinguishable
// from a fresh NewNetwork(mesh, f, alg, cfg, rng) — same statistics for
// the same seed, cycle restarted at zero — which is the invariant the
// cached-vs-fresh golden tests in internal/sim lock in. The mesh and
// Config are fixed at construction; pass a model over the same mesh.
func (n *Network) Reset(f *fault.Model, alg Algorithm, rng *rand.Rand) error {
	if f == nil {
		f = fault.None(n.Topo)
	}
	if f.Topo != n.Topo {
		return fmt.Errorf("core: fault model built for %v, network is %v", f.Topo, n.Topo)
	}
	if alg.NumVCs() > n.Cfg.NumVCs {
		return fmt.Errorf("core: algorithm %s needs %d VCs, config provides %d", alg.Name(), alg.NumVCs(), n.Cfg.NumVCs)
	}
	// Recycle every in-flight pooled message: all live messages are in
	// the active set (Offer registers them), so one pass covers source
	// queues, injection slots and buffered flits alike.
	for _, m := range n.active {
		m.activeIdx = -1
		n.recycle(m)
	}
	n.active = n.active[:0]
	for i := range n.routers {
		r := &n.routers[i]
		for code := range r.vcs {
			s := &r.vcs[code]
			// Wipe everything except the structural port/idx/node fields.
			s.owner = nil
			s.routed = false
			s.out = Channel{}
			s.dvc = nil
			s.up = nil
			s.first = 0
			s.count = 0
			s.acquired = 0
			s.activeIdx = -1
			s.readyIdx = -1
			s.pendIdx = -1
		}
		for j := range r.srcQ {
			r.srcQ[j] = nil // drop references so the arena solely owns them
		}
		r.srcQ = r.srcQ[:0]
		r.inj = injState{}
		r.active = r.active[:0]
		r.ready = r.ready[:0]
		r.pend = r.pend[:0]
		r.crossings = 0
	}
	// Release stamps hold cycle numbers of the previous run, and the
	// cycle counter restarts at zero.
	for i := range n.freed {
		n.freed[i] = 0
	}
	// Rebuild the healthy-neighbor table in place for the new pattern.
	for i := range n.routers {
		id := topology.NodeID(i)
		for d := topology.Direction(0); d < topology.NumDirs; d++ {
			nb := n.Topo.NeighborID(id, d)
			if nb != topology.Invalid && f.IsFaulty(nb) {
				nb = topology.Invalid
			}
			n.nbr[i*topology.NumDirs+int(d)] = nb
		}
	}
	n.resetBusy() // every router is empty again
	n.Faults = f
	n.Alg = alg
	n.rng = rng
	n.cycle = 0
	n.lastGlobalMove = 0
	n.lastStallScan = 0
	n.statsStart = 0
	n.msgSeq = 0
	n.tracer = nil
	n.postmortemFn = nil
	n.stats.reset()
	n.resetLinkCounters()
	n.buildRingLinks() // ring membership follows the new fault model
	// valSeen/valEpoch are epoch-stamped and monotonic: stale marks can
	// never be mistaken for fresh ones, so they carry over untouched.
	return nil
}

// Close releases nothing: a Network holds no resources beyond its own
// memory. It remains for callers that defer it.
func (n *Network) Close() {}

// DisableParallel is a no-op.
//
// Deprecated: the engine is serial; there is no parallel mode to leave.
func (n *Network) DisableParallel() {}

// Cycle returns the current simulation time.
func (n *Network) Cycle() int64 { return n.cycle }

// InFlight returns the number of messages generated but not yet
// delivered or killed.
func (n *Network) InFlight() int { return len(n.active) }

// QueueLen returns the source-queue length at a node.
func (n *Network) QueueLen(id topology.NodeID) int { return len(n.routers[id].srcQ) }

// NextMessageID hands out engine-unique message identifiers for
// drivers that do not keep their own counter.
func (n *Network) NextMessageID() int64 {
	n.msgSeq++
	return n.msgSeq
}

// addActive registers m in the dense in-flight set.
func (n *Network) addActive(m *Message) {
	m.activeIdx = int32(len(n.active))
	n.active = append(n.active, m)
}

// removeActive unregisters m with an O(1) swap-remove.
func (n *Network) removeActive(m *Message) {
	idx := m.activeIdx
	last := int32(len(n.active) - 1)
	if idx != last {
		moved := n.active[last]
		n.active[idx] = moved
		moved.activeIdx = idx
	}
	n.active = n.active[:last]
	m.activeIdx = -1
}

// Offer enqueues a freshly generated message at its source node. The
// caller must have set GenTime; Offer runs the routing algorithm's
// InitMessage. It returns false (counting a refused offer) when the
// source queue is bounded and full; a refused pooled message is
// recycled immediately. Offering traffic at or to a faulty node is a
// driver bug and panics.
func (n *Network) Offer(m *Message) bool {
	if n.Faults.IsFaulty(m.Src) || n.Faults.IsFaulty(m.Dst) {
		panic(fmt.Sprintf("core: traffic at faulty node: %v", m))
	}
	if m.Src == m.Dst {
		panic(fmt.Sprintf("core: message to self: %v", m))
	}
	r := &n.routers[m.Src]
	if n.Cfg.MaxSourceQueue > 0 && len(r.srcQ) >= n.Cfg.MaxSourceQueue {
		if m.GenTime >= n.statsStart {
			n.stats.Refused++
		}
		n.recycle(m)
		return false
	}
	n.Alg.InitMessage(m)
	m.lastMove = n.cycle
	// Latency decomposition starts here: cycles after GenTime count as
	// source-queue wait until the injection grant (telemetry.go).
	m.acctFrom = m.GenTime
	m.acctState = acctQueued
	m.ringSince = -1
	r.srcQ = append(r.srcQ, m)
	n.markBusy(m.Src)
	n.addActive(m)
	if m.GenTime >= n.statsStart {
		n.stats.Generated++
	}
	return true
}

// Step advances the network one cycle: routing + VC allocation, then
// switch allocation and flit traversal, then watchdog checks.
//
// A fully quiescent network — empty dirty set, which by the membership
// invariant (worklist.go) means no queued, injecting or in-flight
// traffic anywhere — short-circuits to the watchdog and the cycle tick.
// The short-circuit is bit-exact: with zero routers holding state the
// routing phase would gather zero requests (a zero-length shuffle draws
// nothing from the RNG), the switch phase would skip every router
// before its shuffle, and commit would have no moves to apply.
func (n *Network) Step() {
	if n.busyCount == 0 && !DebugFullScan {
		n.watchdog()
		n.cycle++
		return
	}
	n.routingPhase()
	n.switchPhase()
	n.watchdog()
	n.cycle++
}

// downstream resolves the input VC that output channel ch of node id
// feeds. ok is false when the neighbor does not exist or is faulty.
// It is the hottest lookup in the engine, so it reads the prebuilt
// healthy-neighbor table instead of doing coordinate arithmetic.
func (n *Network) downstream(id topology.NodeID, ch Channel) (*router, *vcState, bool) {
	if ch.Dir >= topology.NumDirs {
		// A Local "output" has no downstream input VC; a buggy
		// algorithm emitting it must not index past the table row.
		return nil, nil, false
	}
	nb := n.nbr[int(id)*topology.NumDirs+int(ch.Dir)]
	if nb == topology.Invalid {
		return nil, nil, false
	}
	r := &n.routers[nb]
	return r, r.vc(ch.Dir.Opposite(), int(ch.VC), n.Cfg.NumVCs), true
}

// routingPhase finds every header that needs an output channel, asks
// the routing algorithm for candidates, and performs VC allocation
// with random conflict resolution. Request gathering iterates only the
// dirty-router set, in ascending router-index order — routers outside
// the set hold no queue entries, injections or VCs and would contribute
// nothing, so the gathered request slice (and therefore every RNG draw
// that follows) is bit-identical to the original full-mesh scan.
// DebugFullScan restores the full scan, with a cheap idle guard so even
// the reference path stops paying per-router cost for empty routers.
func (n *Network) routingPhase() {
	n.requests = n.requests[:0]
	if DebugFullScan {
		for i := range n.routers {
			r := &n.routers[i]
			if len(r.active) == 0 && r.inj.msg == nil && len(r.srcQ) == 0 {
				continue // idle: cannot contribute a request
			}
			n.gatherRequests(r)
		}
	} else {
		n.collectWork()
		for _, id := range n.work {
			n.gatherRequests(&n.routers[id])
		}
	}
	// Random service order = random conflict resolution among headers
	// competing for the same downstream VCs.
	n.shuffleRequests()
	for _, req := range n.requests {
		r := &n.routers[req.node]
		var m *Message
		var s *vcState
		if req.port == InjectPort {
			if r.inj.msg != nil || len(r.srcQ) == 0 {
				continue
			}
			m = r.srcQ[0]
		} else {
			s = r.vc(topology.Direction(req.port), int(req.vc), n.Cfg.NumVCs)
			if s.owner == nil || s.routed || s.count == 0 {
				continue
			}
			m = s.owner
		}
		// Blocked-header skip: the header failed here at cycle
		// blockedAt-1 with every candidate's downstream VC owned. Its
		// candidates are a pure function of its routing fields, which
		// only a grant changes, and a downstream VC frees only through a
		// neighbor's releaseVC, so with no release next door since then
		// allocate would fail again. A failing allocate draws nothing.
		if m.blockedAt > 0 && !n.freedNear(req.node, m.blockedAt) {
			continue
		}
		n.cands.Reset()
		n.Alg.Candidates(m, req.node, &n.cands)
		ch, ok := n.allocate(req.node, &n.cands)
		if !ok {
			m.blockedAt = n.cycle + 1
			continue
		}
		m.blockedAt = 0
		dr, dvc, ok := n.downstream(req.node, ch)
		if !ok || dvc.owner != nil {
			panic("core: allocate returned unusable channel")
		}
		dr.claim(ch.Dir.Opposite(), int(ch.VC), m, n.cycle, n.Cfg.NumVCs)
		n.markBusy(dr.id) // downstream router now owns a VC
		if req.port == InjectPort {
			r.inj = injState{msg: m, out: ch, dvc: dvc}
			m.lastMove = n.cycle
		} else {
			s.routed = true
			s.out = ch
			s.dvc = dvc
			dvc.up = s
			n.refresh(s)
		}
		// Decomposition: the wait that just ended was queue wait (inject
		// grant) or routing wait (intermediate hop); from here until the
		// next flit move the head is credit/switch blocked.
		m.settleWait(n.cycle, acctBlocked)
		ringBefore := m.RingIdx
		n.Alg.Advance(m, req.node, ch)
		if ringBefore < 0 && m.RingIdx >= 0 {
			m.ringSince = n.cycle
			if n.cycle >= n.statsStart {
				n.stats.RingEntries++
			}
		} else if ringBefore >= 0 && m.RingIdx < 0 {
			m.closeRing(n.cycle)
		}
		if n.tracer != nil {
			n.tracer.HeaderRouted(m, req.node, ch, n.cycle)
		}
	}
}

// freedNear reports whether a healthy neighbor of node — a router
// downstream() can resolve a candidate into — released an input VC at
// or after stamp-1 (stamps are 1 + cycle, as in freed and blockedAt).
func (n *Network) freedNear(node topology.NodeID, stamp int64) bool {
	row := n.nbr[int(node)*topology.NumDirs : int(node)*topology.NumDirs+topology.NumDirs]
	for _, nb := range row {
		if nb != topology.Invalid && n.freed[nb] >= stamp {
			return true
		}
	}
	return false
}

// gatherRequests appends router r's routing-phase requests — the
// source-queue head awaiting injection, then every unrouted header VC
// in active-list order — to n.requests, resolving destination-reached
// headers in place. The worklist and DebugFullScan paths share it.
func (n *Network) gatherRequests(r *router) {
	if r.inj.msg == nil && len(r.srcQ) > 0 {
		n.requests = append(n.requests, request{node: r.id, port: InjectPort})
	}
	if len(r.pend) == 0 {
		return
	}
	// Snapshot first: a Local resolve drops its VC from r.pend.
	n.vcBuf = append(n.vcBuf[:0], r.pend...)
	byActive(n.vcBuf)
	for _, s := range n.vcBuf {
		if s.owner.Dst == r.id {
			s.routed = true
			s.out = Channel{Dir: topology.Local}
			s.dvc = nil
			n.refresh(s)
			// Routing wait ends: the header resolved to the ejection
			// port; remaining stalls are ejection-bandwidth blocked.
			s.owner.settleWait(n.cycle, acctBlocked)
			continue
		}
		n.requests = append(n.requests, request{node: r.id, port: s.port, vc: s.idx})
	}
}

// allocate picks one free channel from the earliest preference tier
// that has any, applying the configured selection policy.
func (n *Network) allocate(node topology.NodeID, cands *CandidateSet) (Channel, bool) {
	for t := 0; t < MaxTiers; t++ {
		tier := cands.Tier(t)
		if len(tier) == 0 {
			continue
		}
		n.freeCh = n.freeCh[:0]
		for _, ch := range tier {
			if _, dvc, ok := n.downstream(node, ch); ok && dvc.owner == nil {
				n.freeCh = append(n.freeCh, ch)
			}
		}
		if len(n.freeCh) == 0 {
			continue
		}
		switch n.Cfg.Selection {
		case SelectRandomChannel:
			return n.freeCh[n.intn(len(n.freeCh))], true
		case SelectRandomDir:
			n.dirBuf = n.dirBuf[:0]
			for _, ch := range n.freeCh {
				seen := false
				for _, d := range n.dirBuf {
					if d == ch.Dir {
						seen = true
						break
					}
				}
				if !seen {
					n.dirBuf = append(n.dirBuf, ch.Dir)
				}
			}
			d := n.dirBuf[n.intn(len(n.dirBuf))]
			n.sameCh = n.sameCh[:0]
			for _, ch := range n.freeCh {
				if ch.Dir == d {
					n.sameCh = append(n.sameCh, ch)
				}
			}
			return n.sameCh[n.intn(len(n.sameCh))], true
		case SelectLowestVC:
			best := n.freeCh[0]
			for _, ch := range n.freeCh[1:] {
				if ch.VC < best.VC || (ch.VC == best.VC && ch.Dir < best.Dir) {
					best = ch
				}
			}
			return best, true
		}
	}
	return Channel{}, false
}

// switchPhase performs switch allocation (one flit per input port and
// per output physical channel per cycle; EjectBW flits on the local
// output) and commits the staged flit moves. It iterates the dirty set
// RE-COLLECTED after the routing phase: VC allocation may have claimed
// input VCs of routers that were idle at cycle start, and the full scan
// gave exactly those routers an outOrder shuffle (consuming RNG), so
// the worklist must visit them too. Routers whose only state is a
// waiting source queue fail the same idle guard the full scan applies
// and consume nothing — membership is a superset of the guard, never a
// substitute for it.
func (n *Network) switchPhase() {
	n.moves = n.moves[:0]
	if DebugFullScan {
		for i := range n.routers {
			n.switchAllocRouter(&n.routers[i])
		}
	} else {
		n.collectWork()
		for _, id := range n.work {
			n.switchAllocRouter(&n.routers[id])
		}
	}
	n.commit()
}

// switchAllocRouter stages router r's flit moves for this cycle; the
// worklist and DebugFullScan paths share it.
//
// Senders come from the router's ready set, whose predicate (routed,
// non-empty, ejecting or credited) reads only state that is frozen
// until commit; sorting each output's bucket by activeIdx yields the
// active-list order the draw-order contract (DESIGN §4.1) prescribes.
// Staging needs no per-VC stamps: each downstream VC has one feeder,
// and a staged VC's input port is already marked used.
func (n *Network) switchAllocRouter(r *router) {
	if len(r.active) == 0 && r.inj.msg == nil {
		return
	}
	injecting := r.inj.msg != nil && r.inj.msg.flitsInjected < r.inj.msg.Length
	injReady := injecting && int(r.inj.dvc.count) < n.Cfg.BufDepth
	senders := len(r.ready)
	if injReady {
		senders++
	}
	tel := n.linkBusy != nil // ChannelTelemetry
	if senders <= 1 && !tel {
		// Output order cannot matter to at most one sender, so only its
		// 4 draws are taken. A lone sender wins whichever output comes
		// first; its pick still draws, like any one-element sender list.
		for k := NumPorts; k > 1; k-- {
			n.intn(k)
		}
		if senders == 1 {
			n.intn(1)
			if injReady {
				n.stage(r, nil)
			} else {
				n.stage(r, r.ready[0])
			}
		}
		return
	}
	// Random output service order for fairness between outputs that
	// contend for the same input ports.
	n.outOrder = [NumPorts]topology.Direction{topology.East, topology.West, topology.North, topology.South, topology.Local}
	for k := NumPorts - 1; k > 0; k-- {
		j := n.intn(k + 1)
		n.outOrder[k], n.outOrder[j] = n.outOrder[j], n.outOrder[k]
	}
	// Telemetry's "busy" is demand, credited or not: any non-empty
	// routed VC or a pending injection aimed at the output.
	var demand [NumPorts]bool
	if tel {
		for _, code := range r.active {
			if s := r.vcAt(code); s.routed && s.count > 0 {
				demand[s.out.Dir] = true
			}
		}
		if injecting {
			demand[r.inj.out.Dir] = true
		}
	}
	for d := range n.sendq {
		n.sendq[d] = n.sendq[d][:0]
	}
	for _, s := range r.ready {
		n.sendq[s.out.Dir] = append(n.sendq[s.out.Dir], s)
	}
	var portUsed [NumPorts]bool
	for _, out := range n.outOrder {
		bucket := n.sendq[out]
		injHere := injReady && r.inj.out.Dir == out
		// Only the order within one output's bucket reaches a draw.
		byActive(bucket)
		capacity := 1
		if out == topology.Local {
			capacity = n.Cfg.EjectBW
		}
		forwarded := false
		for ; capacity > 0; capacity-- {
			n.sendVCs = n.sendVCs[:0]
			for _, s := range bucket {
				if !portUsed[s.port] {
					n.sendVCs = append(n.sendVCs, s)
				}
			}
			if injHere && !portUsed[InjectPort] {
				n.sendVCs = append(n.sendVCs, nil) // nil = injection slot
			}
			if len(n.sendVCs) == 0 {
				break
			}
			w := n.sendVCs[n.intn(len(n.sendVCs))]
			if w == nil {
				portUsed[InjectPort] = true
			} else {
				portUsed[w.port] = true
			}
			n.stage(r, w)
			forwarded = out != topology.Local
		}
		// Link occupancy: the output had demand this cycle (busy); if
		// nothing was staged, every sender was credit- or port-blocked.
		if tel && out != topology.Local && demand[out] {
			li := LinkID(r.id, out)
			n.linkBusy[li]++
			if !forwarded {
				n.linkBlocked[li]++
			}
		}
	}
}

// stage queues sender w's flit move for commit; nil is r's injection
// slot, a VC without a downstream VC ejects.
func (n *Network) stage(r *router, w *vcState) {
	switch {
	case w == nil:
		n.moves = append(n.moves, move{kind: moveInject, node: r.id})
	case w.dvc == nil:
		n.moves = append(n.moves, move{kind: moveEject, node: r.id, port: w.port, vc: w.idx})
	default:
		n.moves = append(n.moves, move{kind: moveLink, node: r.id, port: w.port, vc: w.idx})
	}
}

// refresh re-derives s's membership in its router's ready and pend
// sets. Every change to an input of either predicate — s.routed,
// s.count, or s.dvc.count, which reaches s through s.dvc.up — is
// followed by a refresh of the VCs it feeds into.
func (n *Network) refresh(s *vcState) {
	ready := s.routed && s.count > 0 && (s.dvc == nil || int(s.dvc.count) < n.Cfg.BufDepth)
	pend := !s.routed && s.count > 0
	if ready == (s.readyIdx >= 0) && pend == (s.pendIdx >= 0) {
		return
	}
	r := &n.routers[s.node]
	r.setReady(s, ready)
	r.setPend(s, pend)
}

// commit applies the staged moves simultaneously, refreshing the work
// sets of every VC whose predicate a move can flip: a count leaving or
// reaching zero flips its own VC, a count dropping from BufDepth flips
// its feeder's credit.
func (n *Network) commit() {
	measuring := n.cycle >= n.statsStart
	tel := n.linkFlits != nil // ChannelTelemetry, hoisted out of the loop
	for _, mv := range n.moves {
		r := &n.routers[mv.node]
		switch mv.kind {
		case moveInject:
			m := r.inj.msg
			if tel {
				n.linkFlits[LinkID(mv.node, r.inj.out.Dir)]++
			}
			if m.acctMoved != n.cycle {
				m.acctMoved = n.cycle
				m.settleMove(n.cycle)
			}
			idx := m.flitsInjected
			m.flitsInjected++
			n.arrive(r.inj.dvc, int32(idx))
			if idx == 0 {
				m.InjectTime = n.cycle
				// The header now sits in a neighbor's input VC awaiting
				// VC allocation there.
				m.acctState = acctRouteWait
				if measuring {
					n.stats.Injected++
				}
				if n.tracer != nil {
					n.tracer.MessageInjected(m, n.cycle)
				}
			}
			if n.tracer != nil {
				n.tracer.FlitMoved(Flit{Msg: m, Index: int32(idx)}, r.id, r.inj.out, n.cycle)
			}
			if idx == m.Length-1 {
				r.srcQ = popFrontMsg(r.srcQ)
				r.inj.msg = nil
				// The source router may now be fully drained (all of
				// m's flits live downstream).
				n.checkIdle(r)
			}
			m.lastMove = n.cycle
			n.lastGlobalMove = n.cycle
			if measuring {
				r.crossings++
				n.stats.FlitHops++
			}
		case moveLink:
			s := r.vc(topology.Direction(mv.port), int(mv.vc), n.Cfg.NumVCs)
			if tel {
				n.linkFlits[LinkID(mv.node, s.out.Dir)]++
			}
			f := n.depart(s)
			n.arrive(s.dvc, f.Index)
			if f.Tail() {
				n.releaseVC(r, s)
			} else {
				n.refresh(s)
			}
			if f.Msg.acctMoved != n.cycle {
				f.Msg.acctMoved = n.cycle
				f.Msg.settleMove(n.cycle)
			}
			if f.Head() {
				// The header advanced into the next router's input VC.
				f.Msg.acctState = acctRouteWait
			}
			f.Msg.lastMove = n.cycle
			n.lastGlobalMove = n.cycle
			if n.tracer != nil {
				n.tracer.FlitMoved(f, r.id, s.out, n.cycle)
			}
			if measuring {
				r.crossings++
				n.stats.FlitHops++
			}
		case moveEject:
			s := r.vc(topology.Direction(mv.port), int(mv.vc), n.Cfg.NumVCs)
			f := n.depart(s)
			m := f.Msg
			if m.acctMoved != n.cycle {
				m.acctMoved = n.cycle
				m.settleMove(n.cycle)
			}
			if f.Head() {
				// Header consumed; remaining stalls are body-flit
				// (credit/ejection-bandwidth) blocked.
				m.acctState = acctBlocked
			}
			tail := f.Tail()
			if !tail {
				n.refresh(s)
			} else {
				n.releaseVC(r, s)
				m.DeliverTime = n.cycle
				m.closeRing(n.cycle)
				n.removeActive(m)
				if n.tracer != nil {
					n.tracer.MessageDelivered(m, n.cycle)
				}
				if measuring {
					n.stats.recordDelivery(m, n.statsStart, n.Topo.Distance(n.Topo.CoordOf(m.Src), n.Topo.CoordOf(m.Dst)))
				}
			}
			m.lastMove = n.cycle
			n.lastGlobalMove = n.cycle
			if measuring {
				r.crossings++
				n.stats.DeliveredFlits++
			}
			if tail {
				// Last touch: the message is out of every engine
				// structure, its statistics are folded in, and the
				// tracer has fired — safe to recycle.
				n.recycle(m)
			}
		}
	}
}

// releaseVC accumulates the VC's busy time and frees it. Releasing the
// router's last VC may empty it of engine state entirely, so the
// dirty-set membership is re-checked here.
func (n *Network) releaseVC(r *router, s *vcState) {
	start := s.acquired
	if start < n.statsStart {
		start = n.statsStart
	}
	if n.cycle >= n.statsStart {
		n.stats.VCBusy[s.idx] += n.cycle - start + 1
		n.stats.VCAcquired[s.idx]++
	}
	r.release(s)
	n.freed[r.id] = n.cycle + 1
	n.checkIdle(r)
}

// arrive pushes flit idx into d. Only a first flit can flip d's own
// membership; d's feeder is refreshed by the caller's departure.
func (n *Network) arrive(d *vcState, idx int32) {
	d.pushBack(idx)
	if d.count == 1 {
		n.refresh(d)
	}
}

// depart pops s's head flit. A drop from BufDepth returns a credit to
// s's feeder; s itself is refreshed (or released) by the caller.
func (n *Network) depart(s *vcState) Flit {
	f := s.popFront()
	if s.up != nil && int(s.count) == n.Cfg.BufDepth-1 {
		n.refresh(s.up)
	}
	return f
}

// intn is rand.(*Rand).Intn(k) for 0 < k < 2³¹ — the same Int31n
// rejection loop over the same Int63 stream — with each draw one call
// into the source.
func (n *Network) intn(k int) int {
	k32 := int32(k)
	if k32&(k32-1) == 0 {
		return int(int32(n.rng.Int63()>>32) & (k32 - 1))
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(k32))
	v := int32(n.rng.Int63() >> 32)
	for v > max {
		v = int32(n.rng.Int63() >> 32)
	}
	return int(v % k32)
}

// shuffleRequests is rand.(*Rand).Shuffle over n.requests: the same
// Fisher–Yates walk with math/rand's unexported int31n, reproduced
// here, so the permutation and the draws are Shuffle's.
func (n *Network) shuffleRequests() {
	q := n.requests
	for i := len(q) - 1; i > 0; i-- {
		k := uint32(i + 1)
		prod := uint64(uint32(n.rng.Int63()>>31)) * uint64(k)
		if low := uint32(prod); low < k {
			thresh := -k % k
			for low < thresh {
				prod = uint64(uint32(n.rng.Int63()>>31)) * uint64(k)
				low = uint32(prod)
			}
		}
		j := int(prod >> 32)
		q[i], q[j] = q[j], q[i]
	}
}
