// Package fault implements the paper's fault model: random node
// failures coalesced into rectangular block (convex) fault regions,
// the fault-rings (f-rings) and fault-chains (f-chains) of fault-free
// nodes that surround each region, and the Boura–Das node-labeling
// used by that algorithm's fault-tolerant variant.
//
// Only node failures are modeled: when a node fails, every physical
// link incident on it is also unusable (the paper's assumption). Fault
// patterns are static, non-malicious, and must not disconnect the
// network; New rejects disconnecting patterns and Generate retries
// until it finds a connected one.
//
// On a torus the same block model applies with wrap-aware adjacency:
// fault groups may straddle a wrap edge, in which case their bounding
// box is the minimal circular interval per dimension (Min stays
// canonical, Max may extend past the dimension). Because the torus has
// no boundary every f-ring is closed — there are no f-chains — but a
// region must leave room for the ring one step outside it, so New
// returns ErrRegionWrap when a coalesced region's extent+2 exceeds a
// dimension.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"wormmesh/internal/topology"
)

// Region is a rectangular block fault region: every node with
// Min.X <= x <= Max.X and Min.Y <= y <= Max.Y is faulty or deactivated.
// Min is always canonical (inside the topology); on a torus a region
// that straddles a wrap edge has Max extending past the dimension
// (Max < Min + dimension), so the interval reads the same way in the
// unrolled coordinate space.
type Region struct {
	Min, Max topology.Coord
}

// Contains reports whether c lies inside the region, with c given in
// the region's own (possibly extended) coordinate space. For canonical
// coordinates on a torus use ContainsOn, which re-lifts them past a
// wrap edge first.
func (r Region) Contains(c topology.Coord) bool {
	return c.X >= r.Min.X && c.X <= r.Max.X && c.Y >= r.Min.Y && c.Y <= r.Max.Y
}

// ContainsOn reports whether the canonical coordinate c lies inside the
// region on the given topology: coordinates below Min are lifted by one
// period before the interval test, so wrapped torus regions answer
// correctly. On a mesh it is equivalent to Contains.
func (r Region) ContainsOn(t topology.Topology, c topology.Coord) bool {
	x, y := c.X, c.Y
	if x < r.Min.X {
		x += t.Width()
	}
	if y < r.Min.Y {
		y += t.Height()
	}
	return x >= r.Min.X && x <= r.Max.X && y >= r.Min.Y && y <= r.Max.Y
}

// Width returns the region's extent in X.
func (r Region) Width() int { return r.Max.X - r.Min.X + 1 }

// Height returns the region's extent in Y.
func (r Region) Height() int { return r.Max.Y - r.Min.Y + 1 }

// Size returns the number of nodes covered by the region.
func (r Region) Size() int { return r.Width() * r.Height() }

// String renders the region as "[(x0,y0)..(x1,y1)]".
func (r Region) String() string { return fmt.Sprintf("[%v..%v]", r.Min, r.Max) }

// chebyshev returns the Chebyshev (L∞) distance between two regions:
// 0 when they overlap, 1 when they touch (including diagonally).
func (r Region) chebyshev(o Region) int {
	dx := gap(r.Min.X, r.Max.X, o.Min.X, o.Max.X)
	dy := gap(r.Min.Y, r.Max.Y, o.Min.Y, o.Max.Y)
	if dx > dy {
		return dx
	}
	return dy
}

func gap(aMin, aMax, bMin, bMax int) int {
	switch {
	case bMin > aMax:
		return bMin - aMax
	case aMin > bMax:
		return aMin - bMax
	}
	return 0
}

// Ring is the cycle (or, for regions touching the mesh boundary, the
// open chain) of fault-free nodes immediately surrounding a fault
// region. Nodes are ordered clockwise (with +Y drawn upward: east along
// the top, then down the east side, west along the bottom, and back up
// the west side). A torus has no boundary, so torus rings are always
// closed cycles (Chain is never set), with member coordinates taken
// modulo the dimensions.
type Ring struct {
	Region Region
	// Nodes lists the ring members in clockwise order. For a closed
	// ring the successor of the last node is the first; for a chain the
	// ends have no successor in one orientation.
	Nodes []topology.NodeID
	// Chain is true when the region touches the mesh boundary and the
	// surrounding nodes form an open path rather than a cycle.
	Chain bool

	// pos is a dense node→clockwise-index table (-1 for nodes off the
	// ring), sized to the mesh. Position and Next sit on the routing
	// hot path (every f-ring hop of every blocked header), so the
	// lookup is a single bounds-checked load rather than a map probe.
	pos []int32
}

// Len returns the number of nodes on the ring.
func (r *Ring) Len() int { return len(r.Nodes) }

// Position returns the clockwise index of id on the ring and whether id
// is a ring member.
func (r *Ring) Position(id topology.NodeID) (int, bool) {
	if id < 0 || int(id) >= len(r.pos) {
		return 0, false
	}
	p := r.pos[id]
	return int(p), p >= 0
}

// Next returns the ring node adjacent to id in the clockwise
// (clockwise=true) or counter-clockwise orientation. The second result
// is false when id is not on the ring or when id is the terminal node
// of a chain in that orientation.
func (r *Ring) Next(id topology.NodeID, clockwise bool) (topology.NodeID, bool) {
	p, ok := r.Position(id)
	if !ok {
		return topology.Invalid, false
	}
	n := len(r.Nodes)
	if clockwise {
		if p == n-1 {
			if r.Chain {
				return topology.Invalid, false
			}
			return r.Nodes[0], true
		}
		return r.Nodes[p+1], true
	}
	if p == 0 {
		if r.Chain {
			return topology.Invalid, false
		}
		return r.Nodes[n-1], true
	}
	return r.Nodes[p-1], true
}

// Model is an immutable fault pattern over a mesh: the failed nodes,
// the block regions they coalesce into (growing each connected group of
// faults to its bounding box, possibly deactivating healthy nodes), the
// f-rings around the regions, and the Boura–Das unsafe labeling.
type Model struct {
	Topo topology.Topology

	faulty      []bool // faulty or deactivated: unusable for routing
	seed        []bool // the originally failed nodes
	deactivated int    // healthy nodes sacrificed by convexification

	regions  []Region
	rings    []*Ring
	regionOf []int32   // node -> region index, -1 for healthy nodes
	ringsOf  [][]int32 // node -> indices of rings it lies on
}

// ErrDisconnected is returned when a fault pattern splits the healthy
// nodes into more than one connected component.
var ErrDisconnected = errors.New("fault: pattern disconnects the network")

// ErrAllFaulty is returned when a pattern leaves fewer than two healthy
// nodes, so no traffic can flow.
var ErrAllFaulty = errors.New("fault: fewer than two healthy nodes remain")

// ErrRegionWrap is returned on the torus when a coalesced fault region
// leaves no room for a closed f-ring in some dimension (extent+2 >
// dimension): the perimeter one step outside the region would
// self-intersect, so the pattern is rejected rather than fortified.
var ErrRegionWrap = errors.New("fault: region too large for a closed f-ring on the torus")

// None returns the empty (fault-free) model for a mesh.
func None(m topology.Topology) *Model {
	f, err := New(m, nil)
	if err != nil {
		panic("fault: empty pattern rejected: " + err.Error())
	}
	return f
}

// New builds a Model from a set of failed nodes. Duplicate IDs are
// tolerated. It returns ErrDisconnected if, after block
// convexification, the healthy nodes are not 4-connected, and
// ErrAllFaulty when fewer than two healthy nodes remain.
func New(m topology.Topology, failed []topology.NodeID) (*Model, error) {
	n := m.NodeCount()
	f := &Model{
		Topo:     m,
		faulty:   make([]bool, n),
		seed:     make([]bool, n),
		regionOf: make([]int32, n),
		ringsOf:  make([][]int32, n),
	}
	for _, id := range failed {
		if id < 0 || int(id) >= n {
			return nil, fmt.Errorf("fault: node %d outside %v", id, m)
		}
		f.seed[id] = true
		f.faulty[id] = true
	}
	f.buildRegions()
	if wraps(m) {
		for _, r := range f.regions {
			if r.Width()+2 > m.Width() || r.Height()+2 > m.Height() {
				return nil, fmt.Errorf("%w: %v on %v", ErrRegionWrap, r, m)
			}
		}
	}
	for i := range f.regionOf {
		f.regionOf[i] = -1
	}
	for ri, r := range f.regions {
		for y := r.Min.Y; y <= r.Max.Y; y++ {
			for x := r.Min.X; x <= r.Max.X; x++ {
				id := m.ID(canonical(m, topology.Coord{X: x, Y: y}))
				f.regionOf[id] = int32(ri)
				if !f.seed[id] {
					f.deactivated++
				}
			}
		}
	}
	if f.HealthyCount() < 2 {
		return nil, ErrAllFaulty
	}
	if !f.connected() {
		return nil, ErrDisconnected
	}
	f.buildRings()
	return f, nil
}

// wraps reports whether the topology has wrap links. It selects the
// torus-specific steps: modular region adjacency and circular
// intervals, the ring-fit check in New, and always-closed f-rings.
func wraps(t topology.Topology) bool { return t.Kind() == "torus" }

// canonical reduces a possibly-extended coordinate (from a wrapped
// region's interval) back into the topology. On a mesh every region
// coordinate is already canonical, so this is the identity.
func canonical(t topology.Topology, c topology.Coord) topology.Coord {
	w, h := t.Width(), t.Height()
	return topology.Coord{X: ((c.X % w) + w) % w, Y: ((c.Y % h) + h) % h}
}

// buildRegions is block convexification as one closure: flood-fill the
// 8-connected components of the unusable set, box each component with
// its bounding interval per dimension, deactivate every node inside the
// boxes, and repeat until no node is added. Two boxes within Chebyshev
// distance 1 contain 8-adjacent unusable nodes, so the next fill merges
// them; at the fixpoint every box is exactly its filled component and
// distinct boxes are pairwise at Chebyshev distance >= 2. Boxes at
// distance exactly 2 remain distinct regions whose f-rings overlap,
// matching the paper's overlapping-ring case.
//
// The topology enters only through adjacency (bounds-checked on a
// mesh, modulo the dimensions on a torus) and the interval (first to
// last occupied index on a mesh, the minimal circular interval on a
// torus, which may straddle a wrap edge).
func (f *Model) buildRegions() {
	m := f.Topo
	torus := wraps(m)
	interval := linearInterval
	if torus {
		interval = circularInterval
	}
	// One scratch allocation per call: the visited mask, then per-
	// dimension occupancy of the component being filled.
	n, w := m.NodeCount(), m.Width()
	scratch := make([]bool, n+w+m.Height())
	visited, occX, occY := scratch[:n], scratch[n:n+w], scratch[n+w:]
	var stack []topology.NodeID
	var regions []Region
	for grew := true; grew; {
		clear(visited)
		regions = regions[:0]
		for id := range f.faulty {
			if !f.faulty[id] || visited[id] {
				continue
			}
			clear(occX)
			clear(occY)
			stack = append(stack[:0], topology.NodeID(id))
			visited[id] = true
			for len(stack) > 0 {
				c := m.CoordOf(stack[len(stack)-1])
				stack = stack[:len(stack)-1]
				occX[c.X] = true
				occY[c.Y] = true
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						nc := topology.Coord{X: c.X + dx, Y: c.Y + dy}
						if torus {
							nc = canonical(m, nc)
						} else if !m.Contains(nc) {
							continue
						}
						if nid := m.ID(nc); f.faulty[nid] && !visited[nid] {
							visited[nid] = true
							stack = append(stack, nid)
						}
					}
				}
			}
			x0, x1 := interval(occX)
			y0, y1 := interval(occY)
			regions = append(regions, Region{
				Min: topology.Coord{X: x0, Y: y0},
				Max: topology.Coord{X: x1, Y: y1},
			})
		}
		grew = false
		for _, r := range regions {
			for y := r.Min.Y; y <= r.Max.Y; y++ {
				for x := r.Min.X; x <= r.Max.X; x++ {
					id := m.ID(canonical(m, topology.Coord{X: x, Y: y}))
					if !f.faulty[id] {
						f.faulty[id] = true
						grew = true
					}
				}
			}
		}
	}
	// Deterministic region order: by (Min.Y, Min.X). Disjoint regions
	// have distinct Min corners, so the order is total.
	slices.SortFunc(regions, func(a, b Region) int {
		if a.Min.Y != b.Min.Y {
			return a.Min.Y - b.Min.Y
		}
		return a.Min.X - b.Min.X
	})
	f.regions = regions
}

// linearInterval returns the first and last occupied index of occ: the
// mesh's bounding interval, which never wraps. occ must have at least
// one occupied index.
func linearInterval(occ []bool) (lo, hi int) {
	lo = -1
	for i, o := range occ {
		if o {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	return lo, hi
}

// circularInterval returns the minimal circular interval [lo, hi]
// covering every occupied index modulo len(occ): the complement of the
// longest run of unoccupied indices (first such run on ties, scanning
// from the lowest occupied index, for determinism). lo is canonical;
// hi may extend past len(occ) when the interval wraps. A fully
// occupied dimension yields [0, len(occ)-1]. occ must have at least
// one occupied index.
func circularInterval(occ []bool) (lo, hi int) {
	n := len(occ)
	first := -1
	for i, o := range occ {
		if o {
			first = i
			break
		}
	}
	if first < 0 {
		panic("fault: circularInterval on empty occupancy")
	}
	bestLen, bestEnd := 0, -1
	runLen := 0
	for k := 0; k < n; k++ {
		i := (first + k) % n
		if !occ[i] {
			runLen++
			if runLen > bestLen {
				bestLen = runLen
				bestEnd = i
			}
		} else {
			runLen = 0
		}
	}
	if bestLen == 0 {
		return 0, n - 1
	}
	lo = (bestEnd + 1) % n
	hi = lo + (n - bestLen) - 1
	return lo, hi
}

// connected reports whether the healthy nodes form one 4-connected
// component.
func (f *Model) connected() bool {
	m := f.Topo
	start := topology.Invalid
	healthy := 0
	for id := range f.faulty {
		if !f.faulty[id] {
			healthy++
			if start == topology.Invalid {
				start = topology.NodeID(id)
			}
		}
	}
	if healthy == 0 {
		return false
	}
	seen := make([]bool, m.NodeCount())
	seen[start] = true
	queue := []topology.NodeID{start}
	reached := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for d := topology.Direction(0); d < topology.NumDirs; d++ {
			n := m.NeighborID(cur, d)
			if n == topology.Invalid || f.faulty[n] || seen[n] {
				continue
			}
			seen[n] = true
			reached++
			queue = append(queue, n)
		}
	}
	return reached == healthy
}

// buildRings constructs the ordered f-ring (or f-chain) around every
// region.
func (f *Model) buildRings() {
	m := f.Topo
	for ri, r := range f.regions {
		ring := buildRing(m, r)
		f.rings = append(f.rings, ring)
		for _, id := range ring.Nodes {
			f.ringsOf[id] = append(f.ringsOf[id], int32(ri))
		}
	}
}

// buildRing enumerates the rectangle one step outside the region,
// clockwise, clipped to the mesh. When clipping removes nodes the
// result is an open chain; the surviving nodes are rotated so they are
// contiguous in slice order.
func buildRing(m topology.Topology, r Region) *Ring {
	x0, y0 := r.Min.X-1, r.Min.Y-1
	x1, y1 := r.Max.X+1, r.Max.Y+1
	var cycle []topology.Coord
	// Top edge, west→east (y = y1), then east edge top→bottom, then
	// bottom edge east→west, then west edge bottom→top: clockwise with
	// +Y drawn upward.
	for x := x0; x <= x1; x++ {
		cycle = append(cycle, topology.Coord{X: x, Y: y1})
	}
	for y := y1 - 1; y >= y0; y-- {
		cycle = append(cycle, topology.Coord{X: x1, Y: y})
	}
	for x := x1 - 1; x >= x0; x-- {
		cycle = append(cycle, topology.Coord{X: x, Y: y0})
	}
	for y := y0 + 1; y <= y1-1; y++ {
		cycle = append(cycle, topology.Coord{X: x0, Y: y})
	}
	ring := &Ring{Region: r, pos: make([]int32, m.NodeCount())}
	for i := range ring.pos {
		ring.pos[i] = -1
	}
	if wraps(m) {
		// Every perimeter coordinate exists once wrapped, so torus
		// rings are always closed. New's ring-fit check (extent+2 <=
		// dimension) guarantees the wrapped perimeter nodes are
		// distinct.
		for _, c := range cycle {
			ring.Nodes = append(ring.Nodes, m.ID(canonical(m, c)))
		}
		for i, id := range ring.Nodes {
			ring.pos[id] = int32(i)
		}
		return ring
	}
	inside := func(c topology.Coord) bool { return m.Contains(c) }
	allIn := true
	firstOut := -1
	for i, c := range cycle {
		if !inside(c) {
			allIn = false
			if firstOut < 0 {
				firstOut = i
			}
		}
	}
	if allIn {
		for _, c := range cycle {
			ring.Nodes = append(ring.Nodes, m.ID(c))
		}
	} else {
		ring.Chain = true
		// Rotate so an outside coordinate comes first, then keep the
		// inside ones; they form one contiguous arc for any pattern
		// that does not disconnect the mesh.
		n := len(cycle)
		for i := 0; i < n; i++ {
			c := cycle[(firstOut+i)%n]
			if inside(c) {
				ring.Nodes = append(ring.Nodes, m.ID(c))
			}
		}
	}
	for i, id := range ring.Nodes {
		ring.pos[id] = int32(i)
	}
	return ring
}

// IsFaulty reports whether a node is faulty or deactivated (unusable).
func (f *Model) IsFaulty(id topology.NodeID) bool { return f.faulty[id] }

// IsSeedFault reports whether the node was one of the originally
// injected failures (as opposed to deactivated by convexification).
func (f *Model) IsSeedFault(id topology.NodeID) bool { return f.seed[id] }

// IsUnsafe reports whether a node carries the Boura–Das unsafe label.
// Under the block (convex) fault model the labeling fixpoint coincides
// with block convexification: a node with faulty-or-unsafe neighbors
// in two different dimensions always sits inside the bounding box of
// one 8-connected fault group (any two such neighbors are within
// Chebyshev distance 1 of each other and therefore coalesce). The
// unsafe nodes are thus exactly the deactivated ones, and Boura–Das
// node labeling is realized by treating deactivated nodes as
// non-routable.
func (f *Model) IsUnsafe(id topology.NodeID) bool { return f.faulty[id] && !f.seed[id] }

// HealthyCount returns the number of usable nodes.
func (f *Model) HealthyCount() int {
	n := 0
	for _, bad := range f.faulty {
		if !bad {
			n++
		}
	}
	return n
}

// FaultCount returns the number of unusable nodes (seed + deactivated).
func (f *Model) FaultCount() int { return f.Topo.NodeCount() - f.HealthyCount() }

// SeedCount returns the number of originally failed nodes.
func (f *Model) SeedCount() int {
	n := 0
	for _, s := range f.seed {
		if s {
			n++
		}
	}
	return n
}

// DeactivatedCount returns the number of healthy nodes sacrificed to
// make the fault regions rectangular.
func (f *Model) DeactivatedCount() int { return f.deactivated }

// Regions returns the block fault regions (do not modify).
func (f *Model) Regions() []Region { return f.regions }

// Rings returns the f-rings/f-chains, index-aligned with Regions.
func (f *Model) Rings() []*Ring { return f.rings }

// RegionIndex returns the index (into Regions and Rings) of the region
// containing a faulty node, or -1 for a healthy node. It is the
// hot-path form of RegionOf: a single table load, correct for wrapped
// torus regions where a coordinate box test would not be.
func (f *Model) RegionIndex(id topology.NodeID) int32 { return f.regionOf[id] }

// RegionOf returns the region containing a faulty node, or nil for a
// healthy node.
func (f *Model) RegionOf(id topology.NodeID) *Region {
	ri := f.regionOf[id]
	if ri < 0 {
		return nil
	}
	return &f.regions[ri]
}

// RingAround returns the f-ring surrounding the region that contains
// the given faulty node, or nil when the node is healthy.
func (f *Model) RingAround(faultyNode topology.NodeID) *Ring {
	ri := f.regionOf[faultyNode]
	if ri < 0 {
		return nil
	}
	return f.rings[ri]
}

// RingsThrough returns the rings passing through a (healthy) node.
func (f *Model) RingsThrough(id topology.NodeID) []*Ring {
	idxs := f.ringsOf[id]
	if len(idxs) == 0 {
		return nil
	}
	out := make([]*Ring, len(idxs))
	for i, ri := range idxs {
		out[i] = f.rings[ri]
	}
	return out
}

// OnAnyRing reports whether the node lies on at least one f-ring.
func (f *Model) OnAnyRing(id topology.NodeID) bool { return len(f.ringsOf[id]) > 0 }

// HealthyNodes returns the IDs of all usable nodes in ascending order.
func (f *Model) HealthyNodes() []topology.NodeID {
	out := make([]topology.NodeID, 0, f.HealthyCount())
	for id := range f.faulty {
		if !f.faulty[id] {
			out = append(out, topology.NodeID(id))
		}
	}
	return out
}

// Options controls random fault generation.
type Options struct {
	// ForbidBoundary rejects patterns whose regions touch the mesh
	// boundary (so every region has a closed f-ring, no chains).
	ForbidBoundary bool
	// MaxGrowthFactor bounds how many nodes convexification may
	// deactivate: total unusable nodes must not exceed
	// MaxGrowthFactor × requested count. Zero means 2×.
	MaxGrowthFactor float64
	// MaxAttempts bounds the number of rejected patterns before
	// Generate gives up. Zero means 10000.
	MaxAttempts int
}

// Generate draws `count` distinct random failed nodes and returns the
// resulting model, retrying until the pattern is connected, within the
// growth budget, and (optionally) boundary-free. It returns an error
// when MaxAttempts patterns in a row are rejected.
func Generate(m topology.Topology, count int, rng *rand.Rand, opts Options) (*Model, error) {
	if count < 0 || count >= m.NodeCount() {
		return nil, fmt.Errorf("fault: cannot fail %d of %d nodes", count, m.NodeCount())
	}
	growth := opts.MaxGrowthFactor
	if growth == 0 {
		growth = 2
	}
	attempts := opts.MaxAttempts
	if attempts == 0 {
		attempts = 10000
	}
	ids := make([]topology.NodeID, m.NodeCount())
	for i := range ids {
		ids[i] = topology.NodeID(i)
	}
	for try := 0; try < attempts; try++ {
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		model, err := New(m, ids[:count])
		if err != nil {
			continue
		}
		if count > 0 && float64(model.FaultCount()) > growth*float64(count) {
			continue
		}
		if opts.ForbidBoundary {
			touches := false
			for _, r := range model.rings {
				if r.Chain {
					touches = true
					break
				}
			}
			if touches {
				continue
			}
		}
		return model, nil
	}
	return nil, fmt.Errorf("fault: no acceptable pattern with %d faults after %d attempts", count, attempts)
}
