package routing

import (
	"wormmesh/internal/core"
	"wormmesh/internal/fault"
	"wormmesh/internal/topology"
)

// Static-fault routing memoization.
//
// A fault.Model is immutable for the lifetime of a run, so everything
// the Boppana–Chalasani wrapper derives from it — canProgress,
// blockingRing, the orientation scans of chooseOrientation, ringStep
// successors and dirBetween — is a pure function of (node, dst) or
// (ring, position, orientation). bcMemo precomputes those functions
// into flat tables at construction time, turning the wrapper's
// header-cycle work into table lookups plus the existing fault filter.
//
// The cache MUST reproduce bit-identical candidate ordering: the
// engine's RNG tie-breaking indexes into the candidate list, so a
// reordered (even if set-equal) candidate list changes every
// downstream arbitration draw and breaks the golden Stats contract
// (DESIGN.md §4.2). Each fast path below therefore mirrors its slow
// counterpart exactly, and the equivalence is locked in by
// internal/sim's cached-vs-uncached golden tests across all registered
// algorithms. DebugNoCache is the escape hatch those tests use.
//
// Memory: the per-(node, dst) table is nodeCount² entries. Meshes up
// to eagerMemoNodes nodes (the paper's 10×10 = 10 000 entries,
// ~200 KB) are built eagerly at construction; larger meshes allocate
// and fill one source-node row on first use, so memory follows the
// set of nodes that actually route headers. Each wrapper instance owns
// its own memo, and each sim.Runner its own instances, so lazy fills
// never race.

// DebugNoCache, when set before algorithm construction, disables the
// static-fault memoization tables: wrappers built while it is true
// route through the original scanning code paths. It exists for the
// cached-vs-uncached equivalence tests and for bisecting suspected
// cache bugs; it is read at construction time only, so flipping it
// never affects algorithms that already exist.
var DebugNoCache bool

// eagerMemoNodes is the mesh size (in nodes) up to which the
// per-(node, dst) table is fully built at construction. Above it, rows
// are filled lazily per source node.
const eagerMemoNodes = 256

// progEntry memoizes the static routing facts for one (node, dst)
// pair.
type progEntry struct {
	// nbX / nbY are the healthy minimal neighbors of node towards dst
	// in the X and Y dimensions; Invalid when the dimension has no
	// offset or its minimal neighbor is faulty. canProgress(node, dst,
	// except) reduces to (nbX valid && nbX != except) || (nbY valid &&
	// nbY != except).
	nbX, nbY topology.NodeID
	// ring is blockingRing(node, dst): the f-ring index around the
	// region holding the first faulty minimal neighbor (X dimension
	// first), -1 when no minimal neighbor is faulty.
	ring int16
	// cwSteps / ccwSteps are chooseOrientation's bidirectional scan
	// results for (ring, node, dst): the ring distance to the nearest
	// exit in each orientation, -1 when none. The final orientation
	// also depends on the message's direction class (the tie default),
	// folded in by orientFromScans at query time.
	cwSteps, ccwSteps int16
	// dX / dY are the minimal directions per dimension (only
	// meaningful when the corresponding neighbor field is valid).
	dX, dY topology.Direction
}

// ringMemo holds the per-ring successor tables: next[o][p] is the ring
// node after position p in orientation o (cwIdx), Invalid at a chain
// end, and dir[o][p] is the hop direction to it — ringStep plus
// dirBetween as two array loads.
type ringMemo struct {
	ring *fault.Ring
	next [2][]topology.NodeID
	dir  [2][]topology.Direction
}

// cwIdx maps an orientation to its table index.
func cwIdx(cw bool) int {
	if cw {
		return 1
	}
	return 0
}

// bcMemo is the per-wrapper static-fault cache.
type bcMemo struct {
	w *bcWrapper

	// nbr folds the mesh and the fault model into one flat neighbor
	// table: nbr[node*NumDirs+dir] is the neighbor, or Invalid when the
	// link leaves the mesh or ends at a faulty node (mirrors
	// core.Network's table; rebuilt per algorithm because routing
	// cannot reach into the engine).
	nbr []topology.NodeID
	// allHealthy[node] marks nodes whose every in-mesh neighbor is
	// healthy: the fault filter keeps everything a base emits there
	// (bases only emit in-mesh directions), so Candidates may skip the
	// filter pass entirely — an identity rewrite, hence bit-identical.
	allHealthy []bool

	// rows[node] is the per-destination progEntry row, nil until
	// filled (all rows are filled at construction for meshes up to
	// eagerMemoNodes nodes).
	rows [][]progEntry

	rings []ringMemo
}

// initMemo builds the wrapper's memoization tables unless DebugNoCache
// is set. Must run after the wrapper's ring-channel layout is final.
func (w *bcWrapper) initMemo() {
	if DebugNoCache {
		return
	}
	mesh := w.mesh
	nodes := mesh.NodeCount()
	mm := &bcMemo{
		w:          w,
		nbr:        make([]topology.NodeID, nodes*topology.NumDirs),
		allHealthy: make([]bool, nodes),
		rows:       make([][]progEntry, nodes),
		rings:      make([]ringMemo, len(w.faults.Rings())),
	}
	for i := 0; i < nodes; i++ {
		id := topology.NodeID(i)
		all := true
		for d := topology.Direction(0); d < topology.NumDirs; d++ {
			nb := mesh.NeighborID(id, d)
			if nb != topology.Invalid && w.faults.IsFaulty(nb) {
				nb = topology.Invalid
				all = false
			}
			mm.nbr[i*topology.NumDirs+int(d)] = nb
		}
		mm.allHealthy[i] = all
	}
	for ri, ring := range w.faults.Rings() {
		rm := &mm.rings[ri]
		rm.ring = ring
		n := ring.Len()
		for _, cw := range []bool{false, true} {
			o := cwIdx(cw)
			rm.next[o] = make([]topology.NodeID, n)
			rm.dir[o] = make([]topology.Direction, n)
			for p, id := range ring.Nodes {
				nx, ok := ring.Next(id, cw)
				if !ok {
					rm.next[o][p] = topology.Invalid
					continue
				}
				rm.next[o][p] = nx
				rm.dir[o][p] = w.dirBetween(id, nx)
			}
		}
	}
	w.memo = mm
	if nodes <= eagerMemoNodes {
		for i := 0; i < nodes; i++ {
			mm.fillRow(topology.NodeID(i))
		}
	}
}

// entry returns the memoized facts for (node, dst), filling the
// node's row on first use for lazily built meshes.
func (mm *bcMemo) entry(node, dst topology.NodeID) *progEntry {
	row := mm.rows[node]
	if row == nil {
		row = mm.fillRow(node)
	}
	return &row[dst]
}

// fillRow computes the full per-destination row of one source node by
// evaluating the original scanning implementations eagerly — the same
// code the slow path runs, so the stored facts cannot drift from it.
func (mm *bcMemo) fillRow(node topology.NodeID) []progEntry {
	w := mm.w
	nodes := w.mesh.NodeCount()
	row := make([]progEntry, nodes)
	cur := w.mesh.CoordOf(node)
	for d := 0; d < nodes; d++ {
		dst := topology.NodeID(d)
		e := &row[d]
		e.nbX, e.nbY = topology.Invalid, topology.Invalid
		e.ring = -1
		dc := w.mesh.CoordOf(dst)
		for dim := 0; dim < 2; dim++ {
			dir, ok := w.mesh.DirTowards(cur, dc, dim)
			if !ok {
				continue
			}
			nb := w.mesh.NeighborID(node, dir)
			if dim == 0 {
				e.dX = dir
			} else {
				e.dY = dir
			}
			if nb == topology.Invalid {
				continue
			}
			if !w.faults.IsFaulty(nb) {
				if dim == 0 {
					e.nbX = nb
				} else {
					e.nbY = nb
				}
			} else if e.ring < 0 {
				// blockingRing: the region containing the FIRST faulty
				// minimal neighbor, X dimension checked first.
				e.ring = int16(w.faults.RegionIndex(nb))
			}
		}
		if e.ring >= 0 {
			ring := w.faults.Rings()[e.ring]
			e.cwSteps = int16(w.orientScan(ring, node, dst, true))
			e.ccwSteps = int16(w.orientScan(ring, node, dst, false))
		}
	}
	mm.rows[node] = row
	return row
}

// canProgressMemo is the memoized canProgress: some minimal direction
// leads to a healthy neighbor other than except.
func (e *progEntry) canProgressMemo(except topology.NodeID) bool {
	return (e.nbX != topology.Invalid && e.nbX != except) ||
		(e.nbY != topology.Invalid && e.nbY != except)
}

// orientFromScans combines the stored bidirectional scan results into
// the final orientation, reproducing chooseOrientation's decision
// switch exactly (including the per-class tie default).
func orientFromScans(cwSteps, ccwSteps int16, class core.DirClass) bool {
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
