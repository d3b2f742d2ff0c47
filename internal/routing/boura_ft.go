package routing

import (
	"wormmesh/internal/core"
	"wormmesh/internal/fault"
	"wormmesh/internal/topology"
)

// Boura and Das's fault-tolerant routing (ICPP'95) is approximated as
// three cooperating pieces (see DESIGN.md §2):
//
//   - the node labeling, which under the block fault model coincides
//     with block convexification (fault.Model.IsUnsafe documents the
//     equivalence): deactivated nodes are non-routable;
//   - an adaptive discipline over two virtual subnetworks (north- and
//     south-bound messages) with a strict-XY escape class restoring
//     deadlock freedom on fault-free stretches (Duato's extended-class
//     argument);
//   - detours around fault regions along the region boundary — the
//     only way past a rectangular obstacle in a mesh — taken on the
//     message's own subnetwork channels rather than on a reserved
//     ring-channel set, which is the operational difference from the
//     Boppana–Chalasani scheme.
//
// The boundary traversal reuses the bcWrapper machinery with its
// ringVCsFor hook pointing at the subnet channels.
type bouraEscapeBase struct {
	inner *bouraAdaptive
	mesh  topology.Topology
	escLo int
	escHi int
}

func (b *bouraEscapeBase) name() string         { return "Boura-FT" }
func (b *bouraEscapeBase) init(m *core.Message) { b.inner.init(m) }
func (b *bouraEscapeBase) numVCs() int {
	n := b.inner.numVCs()
	if b.escHi+1 > n {
		n = b.escHi + 1
	}
	return n
}

func (b *bouraEscapeBase) candidates(m *core.Message, node topology.NodeID, out *core.CandidateSet, tier int) {
	b.inner.candidates(m, node, out, tier)
	if tier+1 >= core.MaxTiers {
		return
	}
	// Strict dimension-order escape: X before Y.
	cur, dst := b.mesh.CoordOf(node), b.mesh.CoordOf(m.Dst)
	d, ok := topology.DirTowards(cur, dst, 0)
	if !ok {
		d, ok = topology.DirTowards(cur, dst, 1)
	}
	if ok {
		out.AddVCs(tier+1, d, b.escLo, b.escHi)
	}
}

func (b *bouraEscapeBase) advance(m *core.Message, from topology.NodeID, ch core.Channel) {
	if !topology.IsMinimal(b.mesh.CoordOf(from), b.mesh.CoordOf(m.Dst), ch.Dir) {
		m.Misroutes++
	}
	advanceCommon(b.mesh, m, from, ch)
}

// newBouraFT assembles the full fault-tolerant algorithm: the subnet +
// escape base, fortified with region-boundary traversal on the subnet
// channels.
func newBouraFT(faults *fault.Model, posLo, posHi, negLo, negHi, escLo, escHi int) core.Algorithm {
	inner := &bouraEscapeBase{
		inner: newBouraAdaptive(faults.Topo, posLo, posHi, negLo, negHi),
		mesh:  faults.Topo,
		escLo: escLo,
		escHi: escHi,
	}
	w := &bcWrapper{inner: inner, faults: faults, mesh: faults.Topo}
	w.ringVCsFor = func(m *core.Message, node topology.NodeID) []uint8 {
		lo, hi := inner.inner.subnetRange(m, node)
		w.vcBuf = w.vcBuf[:0]
		for vc := lo; vc <= hi; vc++ {
			w.vcBuf = append(w.vcBuf, uint8(vc))
		}
		return w.vcBuf
	}
	return w
}
