package core

import (
	"math/bits"

	"wormmesh/internal/topology"
)

// Activity-driven stepping. The paper's latency-vs-traffic curves spend
// most of their points at low injection rates, where almost every
// router of the mesh is idle on almost every cycle — yet the original
// routingPhase and switchPhase scanned all routers unconditionally.
// The engine therefore maintains a *dirty-router set*: the exact set of
// routers that hold any engine state (a non-empty source queue, an
// injection in progress, or at least one owned input VC). Only those
// routers can contribute routing requests, switch-allocation work, or
// staged moves, so the per-cycle phases iterate the set instead of the
// mesh, and a fully quiescent network short-circuits the cycle in O(1).
//
// Representation: a bitmap (one bit per router) plus a population
// count. A bitmap was chosen over the dense epoch-stamped list the
// other engine sets use (Network.active, router.active) because the
// determinism contract requires iterating dirty routers in ASCENDING
// router-index order — the order of the original full scans — and a
// bitmap yields that order for free via trailing-zero iteration, where
// a swap-remove list would need a per-cycle sort. Membership updates
// are O(1) and idempotent; iteration is O(words + population), which
// even for a fully idle 100×100 mesh is ~160 word loads instead of
// 10 000 router visits.
//
// Membership invariant (checked by Network.Validate):
//
//	busy(r) ⇔ len(r.srcQ) > 0 ∨ r.inj.msg ≠ nil ∨ len(r.active) > 0
//
// Events that can set the bit — who marks whom dirty:
//
//   - Offer appends to r.srcQ            → markBusy(source router)
//   - VC allocation (routingPhase)
//     claims a downstream input VC      → markBusy(downstream router)
//
// Flit arrivals and credit returns never change membership on their
// own: a flit can only arrive on a VC that was claimed earlier (the
// claim marked the router), and a router waiting on a downstream credit
// still owns the blocked VC. Keeping credit-blocked routers in the set
// is REQUIRED for bit-exactness, not a missed optimization: the serial
// switch phase consumes RNG (the outOrder shuffle) for every router
// with owned VCs or a pending injection, sendable or not, so the
// worklist must visit exactly those routers to replay the stream.
//
// Events that can clear the bit — each re-checks the invariant:
//
//   - releaseVC frees a VC (tail departure, ejection, watchdog kill)
//   - commit finishes an injection (inj cleared, srcQ popped)
//   - watchdog kill clears the victim's source-queue head/injection
//
// DebugFullScan restores the original full-mesh scans (the worklist is
// still maintained, so the toggle may flip between cycles); the golden
// equivalence tests in internal/sim prove worklist ≡ full-scan Stats
// bit-identically across load levels, fault scenarios and engines.
var DebugFullScan bool

// markBusy inserts a router into the dirty set (idempotent).
func (n *Network) markBusy(id topology.NodeID) {
	w, b := int(id)>>6, uint64(1)<<(uint(id)&63)
	if n.busy[w]&b == 0 {
		n.busy[w] |= b
		n.busyCount++
	}
}

// isBusy reports dirty-set membership (Validate and tests).
func (n *Network) isBusy(id topology.NodeID) bool {
	return n.busy[int(id)>>6]&(uint64(1)<<(uint(id)&63)) != 0
}

// BusyRouters returns the dirty-set population — observability for
// tests and load monitoring. The quiescent short-circuit engages when
// this reaches zero.
func (n *Network) BusyRouters() int { return n.busyCount }

// checkIdle removes the router from the dirty set if it no longer holds
// any engine state. Called after every event that can release the last
// resource of a router.
func (n *Network) checkIdle(r *router) {
	if len(r.active) != 0 || r.inj.msg != nil || len(r.srcQ) != 0 {
		return
	}
	w, b := int(r.id)>>6, uint64(1)<<(uint(r.id)&63)
	if n.busy[w]&b != 0 {
		n.busy[w] &^= b
		n.busyCount--
	}
}

// collectWork snapshots the dirty set into n.work in ascending
// router-index order. The phases iterate the snapshot, not the live
// bitmap: commit may clear bits mid-cycle (deliveries) and VC claims
// may set bits mid-cycle (newly claimed downstream routers), and the
// full-scan semantics the worklist replays are "membership as of the
// start of the phase". The switch phase re-collects after the routing
// phase precisely so that routers claimed THIS cycle get their outOrder
// shuffle, exactly as the full scan gave them one.
func (n *Network) collectWork() {
	n.work = n.work[:0]
	for wi, word := range n.busy {
		base := wi << 6
		for word != 0 {
			n.work = append(n.work, topology.NodeID(base+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// resetBusy empties the dirty set (Network.Reset).
func (n *Network) resetBusy() {
	for i := range n.busy {
		n.busy[i] = 0
	}
	n.busyCount = 0
}
