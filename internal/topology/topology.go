// Package topology models the 2-D interconnect topologies the
// simulator runs on: the wrap-free mesh the paper evaluates and a
// wrap-around torus.
//
// Nodes are addressed by (x, y) coordinates with x ∈ [0, width) and
// y ∈ [0, height). Every node has a bidirectional physical link to each
// of its neighbors; the simulator treats each direction of a link as an
// independent physical channel (one flit per cycle each way).
//
// The Topology interface is the contract every backend satisfies (see
// DESIGN.md §4.6 for what the engine relies on): a dense node
// numbering id = y*width + x, per-node neighbor lookup by direction,
// minimal-direction computation that is non-empty and
// distance-decreasing for every distinct pair, and the dateline
// VC-class rule deterministic routing uses to stay deadlock-free on
// wrap links. Both backends are small comparable value types, so
// interface equality (`a == b`) means "same shape", and the hot paths
// of the engine can precompute dense neighbor tables once per run
// instead of calling through the interface per flit.
package topology

import "fmt"

// NodeID is a dense integer identifier for a node: id = y*width + x.
type NodeID int32

// Invalid is returned by functions that may fail to produce a node.
const Invalid NodeID = -1

// Coord is a node address in the network.
type Coord struct {
	X, Y int
}

// String renders the coordinate as "(x,y)".
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Direction identifies one of the four network directions, or the
// local (ejection) port of a router.
type Direction uint8

// The four network directions. East is +X, West is -X, North is +Y and
// South is -Y. Local names the router's ejection port.
const (
	East Direction = iota
	West
	North
	South
	Local

	// NumDirs counts the network directions (excluding Local).
	NumDirs = 4
	// NumPorts counts all router ports: four directions plus injection.
	NumPorts = 5
	// InjectPort is the port index used for the injection queue side of
	// a router. It shares the slot that Local occupies on the output
	// side: input port 4 injects, output "port" Local ejects.
	InjectPort = 4
)

var dirNames = [...]string{"East", "West", "North", "South", "Local"}

// String returns the direction's name.
func (d Direction) String() string {
	if int(d) < len(dirNames) {
		return dirNames[d]
	}
	return fmt.Sprintf("Direction(%d)", uint8(d))
}

// Opposite returns the reverse direction. Opposite(Local) is Local.
func (d Direction) Opposite() Direction {
	switch d {
	case East:
		return West
	case West:
		return East
	case North:
		return South
	case South:
		return North
	}
	return Local
}

// Delta returns the coordinate change of one hop in direction d.
func (d Direction) Delta() (dx, dy int) {
	switch d {
	case East:
		return 1, 0
	case West:
		return -1, 0
	case North:
		return 0, 1
	case South:
		return 0, -1
	}
	return 0, 0
}

// Topology is the geometry contract between a network shape and the
// engine. Implementations must be small comparable value types (the
// engine and the fault model compare topologies with ==) and must
// guarantee:
//
//   - ID is a bijection onto [0, NodeCount) with id = y*Width + x, so
//     dense per-node and per-channel arrays index directly by NodeID
//     (the LinkID encoding and the worklist bitmaps depend
//     on this).
//   - NeighborID(id, d) returns Invalid exactly when no physical link
//     leaves id in direction d; when it returns n, then
//     NeighborID(n, d.Opposite()) == id (links are bidirectional).
//   - MinimalDirs returns a non-empty set for every cur != dst, and
//     every returned direction strictly decreases Distance to dst.
//   - DirTowards is deterministic and consistent along a path: after
//     hopping in the returned direction, the same dimension either
//     reports the same direction again or no direction at all. The
//     deterministic (e-cube) baseline routes dimension 0 first, then
//     dimension 1, following DirTowards.
//   - WrapClass implements the dateline rule: it returns the VC class
//     (0 or 1) a deterministic minimal path from cur to dst must use
//     in dimension dim. Topologies without wrap links always return 0;
//     topologies with wrap links must return classes under which the
//     restriction of the channel-dependency graph to any fixed class,
//     plus the one-way class-1→0 transitions at the dateline, is
//     acyclic.
type Topology interface {
	// Kind returns the backend name ("mesh" or "torus").
	Kind() string
	Width() int
	Height() int
	NodeCount() int
	// Diameter returns the maximum Distance between any two nodes.
	Diameter() int
	Contains(c Coord) bool
	// ID maps a coordinate to its node identifier; it panics on
	// coordinates outside the network (callers validate with Contains).
	ID(c Coord) NodeID
	CoordOf(id NodeID) Coord
	// Neighbor returns the node one hop from c in direction d and
	// whether that node exists.
	Neighbor(c Coord, d Direction) (Coord, bool)
	// NeighborID is Neighbor in NodeID space; Invalid when the
	// neighbor does not exist.
	NeighborID(id NodeID, d Direction) NodeID
	// Distance returns the minimal hop count between two nodes.
	Distance(a, b Coord) int
	// DirTowards returns the direction of one minimal hop along
	// dimension dim (0 = X, 1 = Y) from cur towards dst, and false
	// when cur and dst agree in that dimension.
	DirTowards(cur, dst Coord, dim int) (Direction, bool)
	// MinimalDirs appends to buf the directions that make minimal
	// progress from cur to dst and returns the extended slice.
	MinimalDirs(cur, dst Coord, buf []Direction) []Direction
	// IsMinimal reports whether moving in direction d from cur brings
	// the message closer to dst.
	IsMinimal(cur, dst Coord, d Direction) bool
	// OnBoundary reports whether c lies on an outer edge; always false
	// for boundary-free topologies.
	OnBoundary(c Coord) bool
	// Wraps reports whether the link leaving c in direction d is a
	// wrap-around link (crosses the dateline of its dimension).
	Wraps(c Coord, d Direction) bool
	// WrapClass returns the dateline VC class (0 or 1) a deterministic
	// minimal path from cur to dst uses in dimension dim: 1 while the
	// remaining path in that dimension still crosses the dateline,
	// 0 afterwards (and always 0 on wrap-free topologies).
	WrapClass(cur, dst Coord, dim int) uint8
	String() string
}

// Make constructs the named topology backend. The empty string selects
// the mesh, matching the pre-topology-flag default. Dimensions New or
// NewTorus would panic on are an error here, so request input (a
// meshserve body) cannot panic its handler.
func Make(kind string, width, height int) (Topology, error) {
	switch kind {
	case "", "mesh":
		if width < 2 || height < 2 {
			return nil, fmt.Errorf("topology: mesh dimensions must be >= 2, got %dx%d", width, height)
		}
		return New(width, height), nil
	case "torus":
		if width < 3 || height < 3 {
			return nil, fmt.Errorf("topology: torus dimensions must be >= 3, got %dx%d", width, height)
		}
		return NewTorus(width, height), nil
	}
	return nil, fmt.Errorf("topology: unknown kind %q (want mesh or torus)", kind)
}

// Color returns the 2-coloring label of a node (checkerboard parity).
// The negative-hop routing algorithm labels the network with this
// coloring: a hop from a node of color 1 to color 0 is a negative hop.
// On a torus the coloring is proper only when both dimensions are
// even; the registry restricts the negative-hop schemes accordingly.
func Color(c Coord) int { return (c.X + c.Y) & 1 }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
