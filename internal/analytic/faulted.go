package analytic

// This file is the faulted-mesh extension: WithFaults swaps the
// model's load anatomy from the routing-independent bisection cuts
// onto exact per-channel loads over the fortified route set
// (routing.Loads), so f-ring detour channels pick up the
// displaced load and the contention terms see the true bottlenecks.
// The M/G/1 superstructure — VC-occupancy fixed point, ejection and
// source queues, single-γ calibration — is shared with the fault-free
// path, so Calibrate keeps its contract.

import (
	"fmt"
	"math"

	"wormmesh/internal/fault"
	"wormmesh/internal/routing"
)

// faultedTables caches everything a faulted Predict needs so that a
// single prediction costs O(pairs + channels) — microseconds, not a
// route walk.
type faultedTables struct {
	lm   *routing.LoadMap
	peak float64 // largest per-message channel load

	// chanLoads compacts the non-zero per-message channel loads; its
	// sum is MeanHops, making it the traversal-weight distribution a
	// random hop samples channels by.
	chanLoads []float64
}

// occupancy evaluates the VC-occupancy fixed-point step over the
// actual channel-load distribution: each channel's occupancy is its
// own message rate times the holding time, and the per-hop blocking
// probability is the traversal-weighted mean of occ^(V·a). With
// faults the loads are strongly non-uniform, so this is materially
// more convex in load than blocking at the mean occupancy.
func (ft *faultedTables) occupancy(rate, hold, v, adaptivity float64) (occ, pBlock float64) {
	healthy := float64(ft.lm.Healthy)
	wSum := ft.lm.MeanHops
	exp := v * adaptivity
	for _, u := range ft.chanLoads {
		o := rate * healthy * u * hold / v
		if o > 0.99 {
			o = 0.99
		}
		occ += u * o
		pBlock += u * math.Pow(o, exp)
	}
	occ /= wSum
	pBlock /= wSum
	return occ, pBlock
}

// meanStretch averages the serialization stretch 1/(1-ρ_bottleneck)
// over healthy pairs, where each pair's bottleneck utilization is its
// per-unit expected bottleneck scaled by the network flit rate.
func (ft *faultedTables) meanStretch(scale float64) float64 {
	total := 0.0
	for _, b := range ft.lm.PairBottlenecks {
		rho := b * scale
		if rho >= 1 {
			rho = 0.999999
		}
		total += 1 / (1 - rho)
	}
	return total / float64(len(ft.lm.PairBottlenecks))
}

// meanSourceWait averages the M/G/1 injection-port wait over source
// nodes, each with its own serialization stretch from its own pairs'
// bottlenecks (PairBottlenecks is src-major, healthy-1 entries per
// source). Per-source utilizations are clamped just below 1 — the
// global saturation checks stay with the mean-based terms — so the
// hottest sources contribute large finite waits instead of poles.
func (ft *faultedTables) meanSourceWait(rate, scale, l, netLatency, cv2 float64) float64 {
	perSrc := ft.lm.Healthy - 1
	total := 0.0
	nSrc := 0
	for start := 0; start+perSrc <= len(ft.lm.PairBottlenecks); start += perSrc {
		stretch := 0.0
		for _, b := range ft.lm.PairBottlenecks[start : start+perSrc] {
			rho := b * scale
			if rho >= 1 {
				rho = 0.999999
			}
			stretch += 1 / (1 - rho)
		}
		stretch /= float64(perSrc)
		service := math.Max(l*stretch, netLatency-l)
		rho := rate * service
		if rho > 0.98 {
			rho = 0.98
		}
		total += rate * service * service * (1 + cv2) / (2 * (1 - rho))
		nSrc++
	}
	if nSrc == 0 {
		return 0
	}
	return total / float64(nSrc)
}

// WithFaults returns a copy of the model bound to one fault pattern:
// predictions evaluate the BC-fortified route set's exact channel loads
// instead of the fault-free cuts. The fault model must be built over
// the same topology the model carries.
//
// The route set is the fortification's and reads no base algorithm, so
// one faulted model serves every algorithm routing.LoadsSupported
// accepts; gating the others (Boura-FT) is the caller's job. A
// fault-free model is returned unchanged (the cut loads are exact and
// routing-independent there). Non-mesh topologies return an error
// satisfying errors.Is(err, ErrUnsupported).
func (mo Model) WithFaults(f *fault.Model) (Model, error) {
	if f == nil {
		return mo, fmt.Errorf("analytic: nil fault model")
	}
	if mo.Topo == nil || f.Topo != mo.Topo {
		return mo, fmt.Errorf("analytic: fault model topology %v does not match the model's %v", f.Topo, mo.Topo)
	}
	if mo.Topo.Kind() != "mesh" {
		return mo, fmt.Errorf("%w: topology %s", ErrUnsupported, mo.Topo.Kind())
	}
	if f.FaultCount() == 0 {
		return mo, nil
	}
	lm, err := routing.Loads(f)
	if err != nil {
		return mo, err
	}
	ft := &faultedTables{lm: lm, peak: lm.PeakLoad()}
	for _, u := range lm.Loads {
		if u > 0 {
			ft.chanLoads = append(ft.chanLoads, u)
		}
	}
	out := mo
	out.faulted = ft
	return out, nil
}

// Faulted reports whether the model predicts over faulted route loads.
func (mo Model) Faulted() bool { return mo.faulted != nil }
