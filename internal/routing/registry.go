package routing

import (
	"fmt"

	"wormmesh/internal/core"
	"wormmesh/internal/fault"
	"wormmesh/internal/topology"
)

// AlgorithmNames lists the paper's eleven evaluated configurations
// (ten algorithms, with Boura's scheme appearing in both its adaptive
// and fault-tolerant forms) in the order the figures use.
var AlgorithmNames = []string{
	"PHop",
	"NHop",
	"Pbc",
	"Nbc",
	"Duato",
	"Duato-Pbc",
	"Duato-Nbc",
	"Minimal-Adaptive",
	"Fully-Adaptive",
	"Boura-Adaptive",
	"Boura-FT",
}

// Describe returns a one-line description of an algorithm name.
func Describe(name string) string {
	switch name {
	case "PHop":
		return "Positive-Hop: buffer class = hops taken, diameter+1 classes"
	case "NHop":
		return "Negative-Hop: buffer class = negative hops taken, 1+diameter/2 classes"
	case "Pbc":
		return "PHop with bonus cards (diameter - path length)"
	case "Nbc":
		return "NHop with bonus cards (max - required negative hops)"
	case "Duato":
		return "Duato's methodology: adaptive class I over an e-cube escape"
	case "Duato-Pbc":
		return "Duato's methodology with Pbc as the class-II escape"
	case "Duato-Nbc":
		return "Duato's methodology with Nbc as the class-II escape"
	case "Minimal-Adaptive":
		return "any minimal direction, any virtual channel, no supervision"
	case "Fully-Adaptive":
		return "minimal preferred, at most 10 misroutes when blocked"
	case "Boura-Adaptive":
		return "Boura-Das adaptive two-subnetwork discipline (BC-fortified)"
	case "Boura-FT":
		return "Boura-Das fault-tolerant routing via node labeling (no BC)"
	}
	return ""
}

// SupportsTopology reports whether the named algorithm is enabled on
// the given topology, with an error explaining any rejection. Every
// algorithm runs on the mesh. On the torus the roster is restricted to
// the configurations whose deadlock-freedom argument survives wrap
// links:
//
//   - PHop and Pbc hold on any torus: the positive-hop class ladder
//     strictly increases per hop and minimal paths (≤ diameter hops)
//     never exhaust diameter+1 classes, so the class clamp never binds
//     and the channel-dependency graph is stratified by class
//     regardless of wrap links.
//   - NHop, Nbc and Duato-Nbc additionally need both dimensions even:
//     the negative-hop argument counts color 1→0 hops under the
//     checkerboard coloring, which is a proper 2-coloring across the
//     wrap edge only for even cycles.
//   - Duato and Duato-Pbc hold because Duato's methodology only needs
//     a connected deadlock-free escape: the dateline e-cube (or the
//     Pbc ladder) provides one on the torus.
//   - Minimal-Adaptive and Fully-Adaptive are unsupervised: on a mesh
//     they are deadlock-prone in theory yet benchmarkable, but on a
//     torus the wrap cycles make deadlock routine, so they are
//     rejected rather than run with watchdog kills.
//   - Boura-Adaptive and Boura-FT partition traffic by Y offset sign;
//     "north of" is not well defined on a Y-cycle, so the scheme is
//     mesh-only.
func SupportsTopology(name string, t topology.Topology) error {
	if _, err := MinVCs(name, t); err != nil {
		return err
	}
	if t.Kind() != "torus" {
		return nil
	}
	switch name {
	case "PHop", "Pbc", "Duato", "Duato-Pbc":
		return nil
	case "NHop", "Nbc", "Duato-Nbc":
		if t.Width()%2 != 0 || t.Height()%2 != 0 {
			return fmt.Errorf("routing: %s needs even torus dimensions (checkerboard coloring), got %v", name, t)
		}
		return nil
	case "Minimal-Adaptive", "Fully-Adaptive":
		return fmt.Errorf("routing: %s is not deadlock-free over torus wrap links", name)
	case "Boura-Adaptive", "Boura-FT":
		return fmt.Errorf("routing: %s partitions traffic by Y direction and is mesh-only", name)
	}
	return fmt.Errorf("routing: unknown algorithm %q", name)
}

// TorusAlgorithmNames lists the algorithms enabled on the given torus
// in the paper's order.
func TorusAlgorithmNames(t topology.Topology) []string {
	var names []string
	for _, name := range AlgorithmNames {
		if SupportsTopology(name, t) == nil {
			names = append(names, name)
		}
	}
	return names
}

// MinVCs returns the smallest per-physical-channel virtual channel
// count the named algorithm supports on the given topology, including
// the Boppana–Chalasani ring channels where applicable.
func MinVCs(name string, mesh topology.Topology) (int, error) {
	d := mesh.Diameter()
	phop := d + 1
	nhop := 1 + d/2
	switch name {
	case "PHop", "Pbc":
		return phop + 4, nil
	case "NHop", "Nbc":
		return nhop + 4, nil
	case "Duato":
		return 2 + 1 + 4, nil // e-cube escape pair + 1 adaptive + ring set
	case "Duato-Pbc":
		return phop + 1 + 4, nil
	case "Duato-Nbc":
		return nhop + 1 + 4, nil
	case "Minimal-Adaptive", "Fully-Adaptive":
		return 1 + 4, nil
	case "Boura-Adaptive":
		return 2 + 4, nil
	case "Boura-FT":
		return 2 + 2, nil // two subnets + escape pair
	}
	return 0, fmt.Errorf("routing: unknown algorithm %q", name)
}

// New builds the named algorithm over the fault model with numVCs
// virtual channels per physical channel, reproducing the paper's
// layouts (24 VCs on the 10×10 mesh): every configuration reserves its
// required escape/class channels and the BC scheme's four ring
// channels, with all surplus going where the paper assigns it.
func New(name string, f *fault.Model, numVCs int) (core.Algorithm, error) {
	mesh := f.Topo
	if err := Validate(name, mesh, numVCs); err != nil {
		return nil, err
	}
	d := mesh.Diameter()
	phopClasses := d + 1
	nhopClasses := 1 + d/2
	v := numVCs
	switch name {
	case "PHop", "Pbc":
		// One VC per class; every leftover channel joins the ring set
		// (the paper's PHop uses 19 classes + "four additional virtual
		// channels … 24 virtual channels with overlapping f-rings").
		inner := newHopScheme(mesh, name, false, name == "Pbc", phopClasses, 1, 0)
		return fortify(inner, f, phopClasses, v-1), nil
	case "NHop", "Nbc":
		// The paper gives NHop classes of two virtual channels each.
		vpc := (v - 4) / nhopClasses
		if vpc < 1 {
			vpc = 1
		}
		inner := newHopScheme(mesh, name, true, name == "Nbc", nhopClasses, vpc, 0)
		return fortify(inner, f, nhopClasses*vpc, v-1), nil
	case "Duato":
		escape := newECube(mesh, 0, 2)
		inner := newDuato(mesh, name, escape, 2, v-5)
		return fortify(inner, f, v-4, v-1), nil
	case "Duato-Pbc":
		// Minimal class II (one VC per Pbc class); extras to class I.
		escape := newHopScheme(mesh, "Pbc-escape", false, true, phopClasses, 1, 0)
		inner := newDuato(mesh, name, escape, phopClasses, v-5)
		return fortify(inner, f, v-4, v-1), nil
	case "Duato-Nbc":
		escape := newHopScheme(mesh, "Nbc-escape", true, true, nhopClasses, 1, 0)
		inner := newDuato(mesh, name, escape, nhopClasses, v-5)
		return fortify(inner, f, v-4, v-1), nil
	case "Minimal-Adaptive":
		inner := newMinimalAdaptive(mesh, 0, v-4)
		return fortify(inner, f, v-4, v-1), nil
	case "Fully-Adaptive":
		inner := newFullyAdaptive(mesh, 0, v-4, 10)
		return fortify(inner, f, v-4, v-1), nil
	case "Boura-Adaptive":
		half := (v - 4) / 2
		inner := newBouraAdaptive(mesh, 0, half-1, half, 2*half-1)
		return fortify(inner, f, v-4, v-1), nil
	case "Boura-FT":
		half := (v - 2) / 2
		return newBouraFT(f, 0, half-1, half, 2*half-1, 2*half, 2*half+1), nil
	}
	return nil, fmt.Errorf("routing: unknown algorithm %q", name)
}

// Validate reports why New would refuse the named algorithm on the
// topology with numVCs virtual channels, or nil if it builds there.
func Validate(name string, t topology.Topology, numVCs int) error {
	if err := SupportsTopology(name, t); err != nil {
		return err
	}
	minV, err := MinVCs(name, t)
	if err != nil {
		return err
	}
	if numVCs < minV {
		return fmt.Errorf("routing: %s needs >= %d VCs on %v, got %d", name, minV, t, numVCs)
	}
	return nil
}

// MustNew is New for callers with static names; it panics on error.
func MustNew(name string, f *fault.Model, numVCs int) core.Algorithm {
	alg, err := New(name, f, numVCs)
	if err != nil {
		panic(err)
	}
	return alg
}
