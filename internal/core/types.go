// Package core implements the flit-level wormhole-switching network
// engine: routers with per-port virtual channels, virtual-channel
// allocation, crossbar (switch) allocation with one flit per physical
// channel per cycle, credit-based flow control, and a deadlock
// watchdog. The engine is cycle-driven and deterministic for a given
// seed; conflicts are resolved at random, as in the paper.
//
// Routing algorithms are plugged in through the Algorithm interface;
// the ten algorithms of the paper live in internal/routing.
package core

import (
	"fmt"

	"wormmesh/internal/topology"
)

// Channel names one virtual channel of one output direction of a
// router: the unit of allocation for a message header.
type Channel struct {
	Dir topology.Direction
	VC  uint8
}

// String renders the channel as "East/vc3".
func (c Channel) String() string { return fmt.Sprintf("%v/vc%d", c.Dir, c.VC) }

// DirClass types a message by its overall direction of travel, used by
// the Boppana–Chalasani scheme to pick f-ring virtual channels. Row
// messages (those that must correct their X offset) are WE or EW;
// pure-column messages are NS or SN.
type DirClass uint8

// Message direction classes.
const (
	WE DirClass = iota // destination strictly east of source
	EW                 // destination strictly west of source
	NS                 // same column, destination north
	SN                 // same column, destination south
)

var dirClassNames = [...]string{"WE", "EW", "NS", "SN"}

// String returns the class mnemonic.
func (d DirClass) String() string {
	if int(d) < len(dirClassNames) {
		return dirClassNames[d]
	}
	return fmt.Sprintf("DirClass(%d)", uint8(d))
}

// ClassifyDir computes the direction class of a (src, dst) pair on a
// mesh, where the travel direction per dimension is the coordinate
// ordering. Topology-aware callers use ClassifyDirOn.
func ClassifyDir(src, dst topology.Coord) DirClass {
	switch {
	case dst.X > src.X:
		return WE
	case dst.X < src.X:
		return EW
	case dst.Y > src.Y:
		return NS
	default:
		return SN
	}
}

// ClassifyDirOn computes the direction class of a (src, dst) pair on
// any topology via its minimal-direction choice: on a torus the class
// reflects which way around the ring the message travels. On a mesh it
// is identical to ClassifyDir.
func ClassifyDirOn(t topology.Topology, src, dst topology.Coord) DirClass {
	if d, ok := t.DirTowards(src, dst, 0); ok {
		if d == topology.East {
			return WE
		}
		return EW
	}
	if d, ok := t.DirTowards(src, dst, 1); ok && d == topology.North {
		return NS
	}
	return SN
}

// MaxTiers is the number of preference tiers a routing algorithm may
// populate. Tier 0 is most preferred (e.g. Duato's adaptive class);
// the engine falls to later tiers only when every channel in the
// earlier ones is unavailable.
const MaxTiers = 3

// CandidateSet receives the output channels an algorithm permits for a
// header flit, grouped into preference tiers. It is reused across
// calls to avoid allocation in the simulation inner loop.
type CandidateSet struct {
	tiers [MaxTiers][]Channel
}

// Reset clears all tiers, retaining capacity.
func (s *CandidateSet) Reset() {
	for i := range s.tiers {
		s.tiers[i] = s.tiers[i][:0]
	}
}

// Add appends a channel to the given preference tier.
func (s *CandidateSet) Add(tier int, ch Channel) {
	s.tiers[tier] = append(s.tiers[tier], ch)
}

// AddVCs appends one channel per VC in [lo, hi] for direction d.
func (s *CandidateSet) AddVCs(tier int, d topology.Direction, lo, hi int) {
	for vc := lo; vc <= hi; vc++ {
		s.Add(tier, Channel{Dir: d, VC: uint8(vc)})
	}
}

// Tier returns the channels in one preference tier (do not modify).
func (s *CandidateSet) Tier(i int) []Channel { return s.tiers[i] }

// Filter removes, in place, every candidate for which keep is false.
func (s *CandidateSet) Filter(keep func(Channel) bool) {
	for i := range s.tiers {
		kept := s.tiers[i][:0]
		for _, ch := range s.tiers[i] {
			if keep(ch) {
				kept = append(kept, ch)
			}
		}
		s.tiers[i] = kept
	}
}

// Empty reports whether no tier holds any candidate.
func (s *CandidateSet) Empty() bool {
	for i := range s.tiers {
		if len(s.tiers[i]) > 0 {
			return false
		}
	}
	return true
}

// Total returns the number of candidates across all tiers.
func (s *CandidateSet) Total() int {
	n := 0
	for i := range s.tiers {
		n += len(s.tiers[i])
	}
	return n
}

// Algorithm is a routing algorithm as seen by the engine. An Algorithm
// instance is bound to one mesh and one fault pattern at construction
// time; implementations must be stateless across messages apart from
// the per-message fields they maintain inside Message.
type Algorithm interface {
	// Name identifies the algorithm in reports ("NHop", "Duato-Nbc"…).
	Name() string
	// NumVCs returns the number of virtual channels the algorithm
	// requires per physical channel.
	NumVCs() int
	// InitMessage initializes the per-message routing state (direction
	// class, bonus cards, buffer class, …) at generation time.
	InitMessage(m *Message)
	// Candidates populates out with the channels the header of m may
	// take at node. It must not return channels toward faulty or
	// non-existent nodes. An empty set means the message must wait at
	// this node until conditions change (which only happens for
	// transiently full channels — algorithms must never return an
	// empty set out of routing restrictions alone unless node is the
	// destination, which the engine handles before calling).
	//
	// Candidates is pure: the ordered result depends only on m's
	// routing fields (those InitMessage and Advance maintain), node and
	// the fault model bound at construction — never on network
	// occupancy or on earlier calls — and it never writes *m. The
	// engine relies on this to skip re-evaluating a header whose
	// previous allocation failed while no neighbor has freed a VC
	// since (DESIGN §4.3).
	Candidates(m *Message, node topology.NodeID, out *CandidateSet)
	// Advance updates m's routing state after its header actually moved
	// from node `from` through channel ch. The engine calls it exactly
	// once per header hop.
	Advance(m *Message, from topology.NodeID, ch Channel)
}

// SelectionPolicy decides which free candidate channel a header takes
// when several are available within the winning preference tier.
type SelectionPolicy uint8

// Selection policies.
const (
	// SelectRandomChannel picks uniformly among free (dir, vc) pairs.
	// Directions offering more free VCs are implicitly favored, a mild
	// congestion-avoiding bias; this is the default.
	SelectRandomChannel SelectionPolicy = iota
	// SelectRandomDir first picks a direction uniformly among those
	// with at least one free VC, then a free VC within it.
	SelectRandomDir
	// SelectLowestVC picks the free channel with the lowest VC index,
	// breaking ties by direction order. Deterministic; useful in tests.
	SelectLowestVC
)

var selectionNames = [...]string{"random-channel", "random-dir", "lowest-vc"}

// String returns the policy name.
func (p SelectionPolicy) String() string {
	if int(p) < len(selectionNames) {
		return selectionNames[p]
	}
	return fmt.Sprintf("SelectionPolicy(%d)", uint8(p))
}
