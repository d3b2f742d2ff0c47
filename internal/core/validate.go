package core

import (
	"fmt"

	"wormmesh/internal/topology"
)

// Validate checks the engine's structural invariants and returns the
// first violation found. It is O(all channels) and allocation-free: it
// runs under the watchdog cadence in tests (often every cycle), so it
// reuses an epoch-stamped scratch table held on the Network instead of
// building a map per call.
//
// Invariants:
//   - a VC's flit window stays inside the owning message and never
//     exceeds the configured buffer depth;
//   - an unrouted VC with buffered flits has the header at its head;
//   - an unowned VC has an empty window and is not marked routed;
//   - a routed VC's output channel targets an existing healthy node
//     (or Local at the owner's destination);
//   - the active list matches exactly the owned VCs, with consistent
//     back-references;
//   - the ready set holds exactly the routed, non-empty VCs that are
//     ejecting or have a free downstream slot, and the pend set exactly
//     the unrouted, non-empty ones, each with consistent back-indices;
//   - feeder pointers invert the downstream ones: a routed VC is its
//     downstream VC's up, an up's dvc is the VC, and an injection's
//     first-hop VC has no VC feeder;
//   - no release or blocked-header stamp lies in the future;
//   - the network-wide active message set is consistent (dense indices,
//     no duplicates);
//   - faulty routers hold no traffic;
//   - the dirty-router set holds exactly the routers with engine state
//     (worklist.go's membership invariant), and its population count
//     matches the bitmap.
func (n *Network) Validate() error {
	busyBits := 0
	for i := range n.routers {
		r := &n.routers[i]
		id := topology.NodeID(i)
		faulty := n.Faults.IsFaulty(id)
		wantBusy := len(r.active) > 0 || len(r.srcQ) > 0 || r.inj.msg != nil
		if got := n.isBusy(id); got != wantBusy {
			return fmt.Errorf("node %d: dirty-set membership %v, want %v (active=%d srcQ=%d inj=%v)",
				id, got, wantBusy, len(r.active), len(r.srcQ), r.inj.msg != nil)
		}
		if wantBusy {
			busyBits++
		}
		// Epoch-stamp the router's active codes: valSeen[code] ==
		// n.valEpoch marks membership without any per-call clearing.
		n.valEpoch++
		for ai, code := range r.active {
			if code < 0 || int(code) >= len(n.valSeen) {
				return fmt.Errorf("node %d: active code %d out of range", id, code)
			}
			if n.valSeen[code] == n.valEpoch {
				return fmt.Errorf("node %d: duplicate active code %d", id, code)
			}
			n.valSeen[code] = n.valEpoch
			if got := r.vcAt(code).activeIdx; got != int32(ai) {
				return fmt.Errorf("node %d: active code %d back-reference %d, want %d", id, code, got, ai)
			}
		}
		if faulty && (len(r.active) > 0 || len(r.srcQ) > 0 || r.inj.msg != nil) {
			return fmt.Errorf("faulty node %d holds traffic", id)
		}
		if r.inj.msg != nil && (r.inj.dvc.owner != r.inj.msg || r.inj.dvc.up != nil) {
			return fmt.Errorf("node %d: injection's first-hop VC not owned by it, or fed by a VC", id)
		}
		if n.freed[i] > n.cycle {
			return fmt.Errorf("node %d: release stamp %d after cycle %d", id, n.freed[i]-1, n.cycle)
		}
		ready, pend := 0, 0
		for p := 0; p < topology.NumDirs; p++ {
			for v := 0; v < n.Cfg.NumVCs; v++ {
				s := r.vc(topology.Direction(p), v, n.Cfg.NumVCs)
				code := int32(p)*int32(n.Cfg.NumVCs) + int32(v)
				inActive := n.valSeen[code] == n.valEpoch
				if (s.owner != nil) != inActive {
					return fmt.Errorf("node %d port %d vc %d: owner=%v but active=%v",
						id, p, v, s.owner != nil, inActive)
				}
				if s.node != id {
					return fmt.Errorf("node %d port %d vc %d: belongs to node %d", id, p, v, s.node)
				}
				wantReady := s.owner != nil && s.routed && s.count > 0 &&
					(s.dvc == nil || int(s.dvc.count) < n.Cfg.BufDepth)
				wantPend := s.owner != nil && !s.routed && s.count > 0
				if err := setEntry(r.ready, s.readyIdx, s, wantReady); err != nil {
					return fmt.Errorf("node %d port %d vc %d: ready set: %v", id, p, v, err)
				}
				if err := setEntry(r.pend, s.pendIdx, s, wantPend); err != nil {
					return fmt.Errorf("node %d port %d vc %d: pend set: %v", id, p, v, err)
				}
				if wantReady {
					ready++
				}
				if wantPend {
					pend++
				}
				if s.up != nil && (s.up.dvc != s || s.owner == nil || s.up.owner != s.owner) {
					return fmt.Errorf("node %d port %d vc %d: feeder does not feed it", id, p, v)
				}
				if s.routed && s.dvc != nil && s.dvc.up != s {
					return fmt.Errorf("node %d port %d vc %d: downstream VC's feeder is not this VC", id, p, v)
				}
				if int(s.count) > n.Cfg.BufDepth {
					return fmt.Errorf("node %d port %d vc %d: %d flits exceed depth %d",
						id, p, v, s.count, n.Cfg.BufDepth)
				}
				if s.owner == nil {
					if s.count != 0 {
						return fmt.Errorf("node %d port %d vc %d: unowned VC holds %d flits", id, p, v, s.count)
					}
					if s.routed {
						return fmt.Errorf("node %d port %d vc %d: unowned VC marked routed", id, p, v)
					}
					continue
				}
				if s.count < 0 || s.first < 0 || int(s.first)+int(s.count) > s.owner.Length {
					return fmt.Errorf("node %d port %d vc %d: flit window [%d,%d) outside message of %d flits",
						id, p, v, s.first, s.first+s.count, s.owner.Length)
				}
				if !s.routed && s.count > 0 && !s.headIsHeader() {
					return fmt.Errorf("node %d port %d vc %d: unrouted VC heads flit %d, want header",
						id, p, v, s.first)
				}
				if s.routed {
					if s.out.Dir == topology.Local {
						if s.owner.Dst != id {
							return fmt.Errorf("node %d: VC routed Local but owner's dst is %d", id, s.owner.Dst)
						}
					} else {
						nb := n.Topo.NeighborID(id, s.out.Dir)
						if nb == topology.Invalid {
							return fmt.Errorf("node %d: VC routed off-mesh (%v)", id, s.out.Dir)
						}
						if n.Faults.IsFaulty(nb) {
							return fmt.Errorf("node %d: VC routed into faulty node %d", id, nb)
						}
						if int(s.out.VC) >= n.Cfg.NumVCs {
							return fmt.Errorf("node %d: VC routed to out-of-range vc %d", id, s.out.VC)
						}
					}
				}
			}
		}
		if ready != len(r.ready) || pend != len(r.pend) {
			return fmt.Errorf("node %d: ready/pend sets hold %d/%d VCs, want %d/%d",
				id, len(r.ready), len(r.pend), ready, pend)
		}
	}
	if busyBits != n.busyCount {
		return fmt.Errorf("dirty-set population %d, want %d", n.busyCount, busyBits)
	}
	for i, m := range n.active {
		if m == nil {
			return fmt.Errorf("active[%d] is nil", i)
		}
		if m.activeIdx != int32(i) {
			return fmt.Errorf("active[%d] (msg %d) back-reference %d", i, m.ID, m.activeIdx)
		}
		if m.blockedAt > n.cycle {
			return fmt.Errorf("msg %d: blocked stamp %d after cycle %d", m.ID, m.blockedAt-1, n.cycle)
		}
	}
	return nil
}

// setEntry checks one VC's membership in a work set: present at its
// back-index when want, back-index -1 otherwise.
func setEntry(set []*vcState, idx int32, s *vcState, want bool) error {
	if !want {
		if idx != -1 {
			return fmt.Errorf("member at %d, want absent", idx)
		}
		return nil
	}
	if idx < 0 || int(idx) >= len(set) || set[idx] != s {
		return fmt.Errorf("absent (back-index %d of %d), want member", idx, len(set))
	}
	return nil
}
