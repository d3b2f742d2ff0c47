package routing

import (
	"fmt"

	"wormmesh/internal/core"
	"wormmesh/internal/fault"
	"wormmesh/internal/topology"
)

// bcWrapper fortifies a fault-oblivious base algorithm with the
// Boppana–Chalasani fault-tolerant scheme: messages route per the base
// while minimal fault-free progress is possible; a message blocked by
// a fault region travels around that region's f-ring on dedicated ring
// virtual channels, re-entering base routing as soon as a minimal
// fault-free hop exists.
//
// Ring channels are partitioned by message direction class (WE, EW,
// NS, SN), the paper's "four additional virtual channels"; when more
// than four ring VCs are configured (PHop's 24-VC layout), the extras
// are dealt round-robin to the classes.
//
// Orientation around a ring is chosen by scanning both ways for the
// nearest ring node from which minimal progress resumes; ties and
// no-exit cases fall back to a fixed per-class default (WE/NS
// clockwise, EW/SN counter-clockwise). On an f-chain (a region
// touching the mesh boundary) a message reverses orientation at the
// chain's end.
type bcWrapper struct {
	inner   base
	mesh    topology.Topology
	faults  *fault.Model
	ringVCs [4][]uint8
	// ringVCsFor overrides the per-direction-class ring channel sets:
	// it returns the channels a message may use for its next ring hop
	// at a node. Boura's fault-tolerant scheme routes around regions
	// on its regular subnetwork channels instead of a reserved set.
	ringVCsFor func(m *core.Message, node topology.NodeID) []uint8

	vcBuf []uint8
}

// fortify wraps a base with the BC scheme using ring VC indices
// [ringLo, ringHi].
func fortify(inner base, faults *fault.Model, ringLo, ringHi int) *bcWrapper {
	if ringHi-ringLo+1 < 4 {
		panic(fmt.Sprintf("routing: BC scheme needs >= 4 ring VCs, got %d", ringHi-ringLo+1))
	}
	if inner.numVCs() > ringLo {
		panic(fmt.Sprintf("routing: base %s uses VCs up to %d, overlapping ring VCs from %d", inner.name(), inner.numVCs()-1, ringLo))
	}
	w := &bcWrapper{inner: inner, faults: faults, mesh: faults.Topo}
	for vc := ringLo; vc <= ringHi; vc++ {
		cls := (vc - ringLo) % 4
		w.ringVCs[cls] = append(w.ringVCs[cls], uint8(vc))
	}
	return w
}

// ringChannels resolves the VC set for a ring hop.
func (w *bcWrapper) ringChannels(m *core.Message, node topology.NodeID) []uint8 {
	if w.ringVCsFor != nil {
		return w.ringVCsFor(m, node)
	}
	return w.ringVCs[m.DirClass]
}

func (w *bcWrapper) Name() string { return w.inner.name() }

func (w *bcWrapper) NumVCs() int {
	max := w.inner.numVCs()
	for _, vcs := range w.ringVCs {
		for _, vc := range vcs {
			if int(vc)+1 > max {
				max = int(vc) + 1
			}
		}
	}
	return max
}

func (w *bcWrapper) InitMessage(m *core.Message) {
	w.inner.init(m)
	m.DirClass = core.ClassifyDirOn(w.mesh, w.mesh.CoordOf(m.Src), w.mesh.CoordOf(m.Dst))
	m.RingIdx = -1
}

// canProgress reports whether some minimal direction from node leads
// to a healthy neighbor other than `except`. A message traversing an
// f-ring passes `except = m.Prev`: a minimal hop straight back to the
// node the header just left is not an exit — without this rule a
// message rings one hop, "exits" backwards into the same blockage, and
// livelocks. Pass topology.Invalid to allow every neighbor.
func (w *bcWrapper) canProgress(node, dst, except topology.NodeID) bool {
	cur, dc := w.mesh.CoordOf(node), w.mesh.CoordOf(dst)
	for dim := 0; dim < 2; dim++ {
		d, ok := w.mesh.DirTowards(cur, dc, dim)
		if !ok {
			continue
		}
		nb := w.mesh.NeighborID(node, d)
		if nb != topology.Invalid && nb != except && !w.faults.IsFaulty(nb) {
			return true
		}
	}
	return false
}

// blockingRing returns the index of the f-ring around the region that
// blocks minimal progress from node (the region containing the first
// faulty minimal neighbor, X dimension checked first).
func (w *bcWrapper) blockingRing(node, dst topology.NodeID) int32 {
	cur, dc := w.mesh.CoordOf(node), w.mesh.CoordOf(dst)
	for dim := 0; dim < 2; dim++ {
		d, ok := w.mesh.DirTowards(cur, dc, dim)
		if !ok {
			continue
		}
		nb := w.mesh.NeighborID(node, d)
		if nb == topology.Invalid || !w.faults.IsFaulty(nb) {
			continue
		}
		return w.faults.RegionIndex(nb)
	}
	return -1
}

// defaultCW is the per-class fallback orientation.
func defaultCW(c core.DirClass) bool { return c == core.WE || c == core.NS }

// chooseOrientation scans the ring both ways from node and picks the
// orientation reaching, in fewer ring hops, a node from which minimal
// progress towards dst resumes (progress that does not step back along
// the ring, mirroring the exit rule applied during traversal).
func (w *bcWrapper) chooseOrientation(ring *fault.Ring, node, dst topology.NodeID, class core.DirClass) bool {
	return orientFromScans(w.orientScan(ring, node, dst, true), w.orientScan(ring, node, dst, false), class)
}

// orientFromScans combines the two orientation scans into the final
// orientation: the side with the nearer exit wins; a tie, or no exit
// either way, falls back to the per-class default.
func orientFromScans(cwSteps, ccwSteps int, class core.DirClass) bool {
	switch {
	case cwSteps < 0 && ccwSteps < 0:
		return defaultCW(class)
	case cwSteps < 0:
		return false
	case ccwSteps < 0:
		return true
	case cwSteps < ccwSteps:
		return true
	case ccwSteps < cwSteps:
		return false
	default:
		return defaultCW(class)
	}
}

// orientScan walks the ring from node in one orientation and returns
// the number of ring hops to the nearest node from which minimal
// progress towards dst resumes, or -1 when a chain end or a full loop
// comes first.
func (w *bcWrapper) orientScan(ring *fault.Ring, node, dst topology.NodeID, cw bool) int {
	cur := node
	for steps := 1; steps <= ring.Len(); steps++ {
		next, ok := ring.Next(cur, cw)
		if !ok {
			return -1 // chain end before an exit
		}
		if next == node {
			return -1 // full loop, no exit
		}
		if next == dst || w.canProgress(next, dst, cur) {
			return steps
		}
		cur = next
	}
	return -1
}

// ringStep computes the next hop for a message traversing ring ri from
// node with the given orientation, reversing at a chain end. ok is
// false when the node has no ring successor at all (degenerate
// single-node chain).
func (w *bcWrapper) ringStep(ri int32, node topology.NodeID, cw bool) (next topology.NodeID, usedCW bool, ok bool) {
	ring := w.faults.Rings()[ri]
	if n, ok := ring.Next(node, cw); ok {
		return n, cw, true
	}
	if n, ok := ring.Next(node, !cw); ok {
		return n, !cw, true
	}
	return topology.Invalid, cw, false
}

// dirBetween returns the direction of the single hop from a to b
// (wrap links included: adjacency is by the topology's link set, so a
// mesh's unique matching direction and a torus wrap hop both resolve).
func (w *bcWrapper) dirBetween(a, b topology.NodeID) topology.Direction {
	for d := topology.Direction(0); d < topology.NumDirs; d++ {
		if w.mesh.NeighborID(a, d) == b {
			return d
		}
	}
	panic(fmt.Sprintf("routing: nodes %v and %v are not adjacent", w.mesh.CoordOf(a), w.mesh.CoordOf(b)))
}

// Candidates emits the base's channels while minimal fault-free
// progress exists, else the ring channels of the next f-ring hop. The
// candidate order is part of the determinism contract (DESIGN.md §4.2):
// the engine's RNG tie-breaking indexes into the list.
func (w *bcWrapper) Candidates(m *core.Message, node topology.NodeID, out *core.CandidateSet) {
	// A message traversing a ring may not "exit" backwards to the node
	// it just left; normal messages have no such restriction.
	except := topology.Invalid
	if m.RingIdx >= 0 {
		except = m.Prev
	}
	if w.canProgress(node, m.Dst, except) {
		// Normal (or ring-exiting) routing: base candidates minus any
		// channel pointing into a fault region (or, when exiting a
		// ring, straight back along it). Whether a channel survives
		// depends only on its direction, so the test runs once per
		// direction, and not at all when every direction passes. Every
		// base offers all minimal directions, so the healthy one that
		// canProgress found survives and the list is never empty.
		var allowed uint8
		for d := topology.Direction(0); d < topology.NumDirs; d++ {
			nb := w.mesh.NeighborID(node, d)
			if nb != topology.Invalid && nb != except && !w.faults.IsFaulty(nb) {
				allowed |= 1 << d
			}
		}
		w.inner.candidates(m, node, out, 0)
		if allowed != 1<<topology.NumDirs-1 {
			out.Filter(func(ch core.Channel) bool { return allowed&(1<<ch.Dir) != 0 })
		}
		return
	}
	// Blocked by a fault: traverse (or begin traversing) the f-ring.
	ri := m.RingIdx
	var cw bool
	if ri >= 0 {
		if _, onRing := w.faults.Rings()[ri].Position(node); onRing {
			cw = m.RingCW
		} else {
			ri = -1 // drifted onto a different obstacle
		}
	}
	if ri < 0 {
		ri = w.blockingRing(node, m.Dst)
		if ri < 0 {
			return // nowhere to go; watchdog will clean up if persistent
		}
		cw = w.chooseOrientation(w.faults.Rings()[ri], node, m.Dst, m.DirClass)
	}
	next, _, ok := w.ringStep(ri, node, cw)
	if !ok {
		return
	}
	d := w.dirBetween(node, next)
	for _, vc := range w.ringChannels(m, node) {
		out.Add(0, core.Channel{Dir: d, VC: vc})
	}
}

// Advance records a ring move's ring and orientation on the message,
// or clears them when the hop resumed minimal routing.
func (w *bcWrapper) Advance(m *core.Message, from topology.NodeID, ch core.Channel) {
	target := w.mesh.NeighborID(from, ch.Dir)
	except := topology.Invalid
	if m.RingIdx >= 0 {
		except = m.Prev
	}
	if w.canProgress(from, m.Dst, except) {
		m.RingIdx = -1
		w.inner.advance(m, from, ch)
		return
	}
	// Ring move: recover which ring and orientation produced it.
	ri := m.RingIdx
	if ri >= 0 {
		if _, onRing := w.faults.Rings()[ri].Position(from); !onRing {
			ri = -1
		}
	}
	if ri < 0 {
		ri = w.blockingRing(from, m.Dst)
	}
	if ri >= 0 {
		ring := w.faults.Rings()[ri]
		if n, ok := ring.Next(from, true); ok && n == target {
			m.RingIdx, m.RingCW = ri, true
		} else if n, ok := ring.Next(from, false); ok && n == target {
			m.RingIdx, m.RingCW = ri, false
		}
	}
	w.inner.advance(m, from, ch)
}
