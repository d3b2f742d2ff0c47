package experiments

import (
	"wormmesh/internal/report"
	"wormmesh/internal/routing"
	"wormmesh/internal/sim"
	"wormmesh/internal/sweep"
	"wormmesh/internal/topology"
)

// RingLoad runs Figure 6 at saturating load: the traffic load
// distribution over f-ring nodes versus the remaining nodes. Each
// algorithm gets two rows, case "0%" (the fault-free run scored on the
// ring nodes of the canned three-region pattern) then case "faulty"
// (the run on that pattern), with shares and peak utilization in
// percent.
func RingLoad(o Options, algorithms []string) (*report.Table, error) {
	if algorithms == nil {
		algorithms = routing.AlgorithmNames
	}
	faultNodes := o.Fig6FaultNodes()
	var points []sweep.Point
	for _, alg := range algorithms {
		p := o.baseParams()
		p.Algorithm = alg
		p.Rate = o.SaturatingRate()
		p.FaultNodes = faultNodes
		points = append(points, sweep.Point{Key: alg + "@faulty", Params: p})
		p2 := p
		p2.FaultNodes = nil
		p2.Faults = 0
		points = append(points, sweep.Point{Key: alg + "@free", Params: p2})
	}
	o.logf("ring load: %d runs (%d algorithms, canned pattern of %d faults + fault-free)",
		len(points), len(algorithms), len(faultNodes))
	cells, err := o.runCells(points)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("algorithm", "case", "ring_share%", "other_share%", "peak_load", "peak_node_util%")
	for i := 0; i < len(cells); i += 2 {
		alg := cells[i][0].Point.Params.Algorithm
		faulty, free := cells[i][0].Result, cells[i+1][0].Result
		// A cache hit carries no fault model; rebuild it from the point.
		for _, r := range []*sim.Result{&faulty, &free} {
			if r.Faults == nil {
				if r.Faults, err = sim.BuildFaults(r.Params); err != nil {
					return nil, err
				}
			}
		}
		// Score the fault-free run on the nodes that ring the canned
		// pattern in the faulty run.
		ringSet := map[topology.NodeID]bool{}
		for id := topology.NodeID(0); int(id) < faulty.Faults.Topo.NodeCount(); id++ {
			if !faulty.Faults.IsFaulty(id) && faulty.Faults.OnAnyRing(id) {
				ringSet[id] = true
			}
		}
		f := free.LoadDistributionFor(ringSet)
		t.AddRow(alg, "0%", 100*f.RingShare, 100*f.OtherShare, f.PeakLoad, 100*f.PeakUtilization)
		d := faulty.LoadDistribution()
		t.AddRow(alg, "faulty", 100*d.RingShare, 100*d.OtherShare, d.PeakLoad, 100*d.PeakUtilization)
	}
	return t, nil
}
