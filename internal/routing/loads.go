package routing

import (
	"fmt"
	"sort"

	"wormmesh/internal/core"
	"wormmesh/internal/fault"
	"wormmesh/internal/topology"
)

// LoadsSupported reports whether Loads models the named algorithm's
// traffic: every algorithm built on the Boppana–Chalasani fortification.
// Boura-FT routes around regions with its own labeling scheme, whose
// detours the walk does not reproduce.
func LoadsSupported(name string) bool {
	return name != "Boura-FT" && Describe(name) != ""
}

// LoadMap holds the expected per-channel traffic of the BC-fortified
// algorithms over one fault pattern under uniform traffic, produced by
// Loads. Loads are per generated message: Loads[c] is the
// probability that a message between a uniformly random healthy ordered
// pair traverses directed channel c, summed over the pair's possible
// paths. Multiplying by (message rate per node × healthy nodes ×
// message length) turns an entry into a flit utilization.
type LoadMap struct {
	Topo topology.Topology

	// Loads is indexed by int(node)*topology.NumDirs + int(dir): the
	// expected traversals of that directed output channel per message.
	Loads []float64

	// MeanHops is the expected path length of a message, detours
	// included (equals the fault-free mean distance when no faults).
	MeanHops float64
	// RingHops is the portion of MeanHops spent on f-ring detour hops.
	RingHops float64

	// PairBottlenecks holds, for each healthy ordered (src, dst) pair in
	// src-major order, the expected per-unit-load bottleneck the pair's
	// flits serialize against: max over channels of (the pair's
	// crossing probability × the channel's global per-message load).
	// Scaling by the network flit rate gives the bottleneck utilization
	// the analytic model's stretch term needs.
	PairBottlenecks []float64

	// Healthy is the number of healthy nodes; Pairs the number of
	// healthy ordered pairs (= len(PairBottlenecks)).
	Healthy int
	Pairs   int
	// Channels is the number of directed channels between healthy
	// neighbors.
	Channels int

	// LostMass is the total path probability the walk dropped (ring
	// dead-ends, hop-budget caps); ~0 for the connected fault patterns
	// the fault package generates, and a red flag otherwise.
	LostMass float64
}

// PeakLoad returns the largest per-message channel load.
func (lm *LoadMap) PeakLoad() float64 {
	peak := 0.0
	for _, u := range lm.Loads {
		if u > peak {
			peak = u
		}
	}
	return peak
}

// Loads walks every healthy source-destination pair through the BC
// fortification over f and accumulates expected channel utilizations:
// in normal mode a message's probability mass splits uniformly over the
// healthy minimal directions; when minimal progress is blocked the mass
// follows the deterministic f-ring detour (orientation scan, chain-end
// reversal, drift re-detection) exactly as the engine routes it, so
// f-ring channels pick up the displaced load.
//
// The walk reads the fortification's fault geometry and no base
// algorithm: every base offers all minimal directions, so the map is
// the same for every algorithm LoadsSupported accepts, and one walk per
// fault set serves them all.
func Loads(f *fault.Model) (*LoadMap, error) {
	w := &bcWrapper{mesh: f.Topo, faults: f}
	topo := f.Topo
	n := topo.NodeCount()
	lm := &LoadMap{
		Topo:    topo,
		Loads:   make([]float64, n*int(topology.NumDirs)),
		Healthy: f.HealthyCount(),
	}
	lm.Pairs = lm.Healthy * (lm.Healthy - 1)
	if lm.Pairs == 0 {
		return nil, fmt.Errorf("routing: no healthy pairs to route")
	}
	for id := topology.NodeID(0); int(id) < n; id++ {
		if f.IsFaulty(id) {
			continue
		}
		for d := topology.Direction(0); d < topology.NumDirs; d++ {
			if nb := topo.NeighborID(id, d); nb != topology.Invalid && !f.IsFaulty(nb) {
				lm.Channels++
			}
		}
	}

	lw := newLoadWalker(w)
	healthy := f.HealthyNodes()
	invPairs := 1 / float64(lm.Pairs)

	// Pass 1: global per-message loads, mean hops, lost mass. Iterate
	// destinations in the outer loop so the distance ordering is
	// computed once per destination.
	for _, dst := range healthy {
		lw.setDst(dst)
		for _, src := range healthy {
			if src == dst {
				continue
			}
			lw.walk(src, func(ch int, mass float64, onRing bool) {
				lm.Loads[ch] += mass * invPairs
				lm.MeanHops += mass * invPairs
				if onRing {
					lm.RingHops += mass * invPairs
				}
			})
			lm.LostMass += lw.lost * invPairs
		}
	}

	// Pass 2: per-pair bottlenecks against the now-complete global
	// loads. The walk is deterministic, so re-running it reproduces
	// pass 1's per-pair channel masses exactly. Destinations again lead
	// so each ordering is built once; the results land src-major, where
	// dst is column di of src's row (its own column skipped).
	perSrc := len(healthy) - 1
	lm.PairBottlenecks = make([]float64, lm.Pairs)
	scratch := make([]float64, len(lm.Loads))
	var touched []int
	for di, dst := range healthy {
		lw.setDst(dst)
		for si, src := range healthy {
			if src == dst {
				continue
			}
			touched = touched[:0]
			lw.walk(src, func(ch int, mass float64, onRing bool) {
				if scratch[ch] == 0 {
					touched = append(touched, ch)
				}
				scratch[ch] += mass
			})
			b := 0.0
			for _, ch := range touched {
				if u := scratch[ch] * lm.Loads[ch]; u > b {
					b = u
				}
				scratch[ch] = 0
			}
			col := di
			if di > si {
				col--
			}
			lm.PairBottlenecks[si*perSrc+col] = b
		}
	}
	return lm, nil
}

// loadWalker propagates one source-destination pair's probability mass
// through a bcWrapper's routing function. Normal-mode mass is merged
// per node (the decision there depends only on (node, dst)) and
// processed in decreasing distance-to-destination order; ring-mode
// traversal is deterministic and walked hop by hop. Ring exits can
// re-inject mass at nodes farther from the destination than the
// current sweep position, so the sweep repeats until no mass moves.
type loadWalker struct {
	w    *bcWrapper
	topo topology.Topology
	n    int

	dst    topology.NodeID
	class  core.DirClass // per-source; set in walk
	normal []float64     // pending normal-mode mass per node
	order  []topology.NodeID
	dirs   []topology.Direction
	lost   float64

	maxDetour int
	maxRounds int
}

// massEps is the probability mass below which a branch is dropped
// (accounted in LostMass). The uniform split halves mass per fork, so
// 1e-12 keeps ~40 forks — far beyond any minimal path on meshes this
// package targets — while bounding the sweep.
const massEps = 1e-12

func newLoadWalker(w *bcWrapper) *loadWalker {
	topo := w.mesh
	n := topo.NodeCount()
	ringLen := 0
	for _, r := range w.faults.Rings() {
		ringLen += r.Len()
	}
	return &loadWalker{
		w:         w,
		topo:      topo,
		n:         n,
		normal:    make([]float64, n),
		order:     make([]topology.NodeID, 0, n),
		maxDetour: 4*topo.Diameter() + 4*ringLen + 8,
		maxRounds: 4 + 4*len(w.faults.Rings()),
	}
}

// setDst fixes the destination and rebuilds the processing order:
// nodes sorted by decreasing minimal distance to dst (ties by ID for
// determinism).
func (lw *loadWalker) setDst(dst topology.NodeID) {
	lw.dst = dst
	lw.order = lw.order[:0]
	dc := lw.topo.CoordOf(dst)
	for id := topology.NodeID(0); int(id) < lw.n; id++ {
		lw.order = append(lw.order, id)
	}
	dist := func(id topology.NodeID) int { return lw.topo.Distance(lw.topo.CoordOf(id), dc) }
	sort.SliceStable(lw.order, func(i, j int) bool {
		di, dj := dist(lw.order[i]), dist(lw.order[j])
		if di != dj {
			return di > dj
		}
		return lw.order[i] < lw.order[j]
	})
}

// emitFunc receives one expected channel traversal: ch is the flat
// channel index (node*NumDirs+dir), mass the path probability crossing
// it, onRing whether the hop is an f-ring detour hop.
type emitFunc func(ch int, mass float64, onRing bool)

// walk propagates unit mass from src to the walker's destination,
// emitting every expected channel crossing. Residual undeliverable
// mass is left in lw.lost.
func (lw *loadWalker) walk(src topology.NodeID, emit emitFunc) {
	w, topo, dst := lw.w, lw.topo, lw.dst
	lw.class = core.ClassifyDirOn(topo, topo.CoordOf(src), topo.CoordOf(dst))
	lw.lost = 0
	lw.normal[src] = 1

	for round := 0; round < lw.maxRounds; round++ {
		moved := false
		for _, node := range lw.order {
			m := lw.normal[node]
			if m <= massEps || node == dst {
				continue
			}
			lw.normal[node] = 0
			moved = true
			if w.canProgress(node, dst, topology.Invalid) {
				lw.splitMinimal(node, topology.Invalid, m, emit)
			} else {
				lw.ringWalk(node, m, emit)
			}
		}
		if !moved {
			break
		}
	}
	// Delivered mass sits at dst; anything still pending elsewhere hit
	// the round cap.
	for id := range lw.normal {
		if topology.NodeID(id) != dst {
			lw.lost += lw.normal[id]
		}
		lw.normal[id] = 0
	}
}

// splitMinimal distributes mass uniformly over the healthy minimal
// directions out of node (excluding the ring-exit back-hop), emitting
// the crossings and queuing the mass at the neighbors.
func (lw *loadWalker) splitMinimal(node, except topology.NodeID, m float64, emit emitFunc) {
	w, topo := lw.w, lw.topo
	lw.dirs = minimalDirs(topo, node, lw.dst, lw.dirs[:0])
	kept := lw.dirs[:0]
	for _, d := range lw.dirs {
		nb := topo.NeighborID(node, d)
		if nb == topology.Invalid || nb == except || w.faults.IsFaulty(nb) {
			continue
		}
		kept = append(kept, d)
	}
	if len(kept) == 0 {
		lw.lost += m // canProgress guaranteed this cannot happen
		return
	}
	share := m / float64(len(kept))
	base := int(node) * int(topology.NumDirs)
	for _, d := range kept {
		emit(base+int(d), share, false)
		lw.normal[topo.NeighborID(node, d)] += share
	}
}

// ringWalk follows the deterministic f-ring detour from a blocked node
// until the mass exits back into normal mode (split over the healthy
// minimal non-backward directions), reaches the destination, or dies.
// It mirrors candidatesScan decision for decision: exit check with
// except=prev, drift re-detection onto a different obstacle, chain-end
// reversal inside ringStep.
func (lw *loadWalker) ringWalk(node topology.NodeID, m float64, emit emitFunc) {
	w, dst := lw.w, lw.dst
	prev := topology.Invalid
	ri := int32(-1)
	cw := false
	for steps := 0; steps < lw.maxDetour; steps++ {
		if node == dst {
			lw.normal[dst] += m
			return
		}
		if prev != topology.Invalid && w.canProgress(node, dst, prev) {
			lw.splitMinimal(node, prev, m, emit)
			return
		}
		if ri >= 0 {
			if _, onRing := w.faults.Rings()[ri].Position(node); !onRing {
				ri = -1 // drifted onto a different obstacle
			}
		}
		if ri < 0 {
			ri = w.blockingRing(node, dst)
			if ri < 0 {
				lw.lost += m
				return
			}
			cw = w.chooseOrientation(w.faults.Rings()[ri], node, dst, lw.class)
		}
		next, usedCW, ok := w.ringStep(ri, node, cw)
		if !ok {
			lw.lost += m
			return
		}
		d := w.dirBetween(node, next)
		emit(int(node)*int(topology.NumDirs)+int(d), m, true)
		prev, node, cw = node, next, usedCW
	}
	lw.lost += m
}
