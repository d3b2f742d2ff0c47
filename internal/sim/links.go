// Link-telemetry reporting: composite link views, per-link CSV tables,
// the latency-anatomy breakdown, and the on-/off-ring congestion split
// the hotspot study aggregates. Everything here is derived read-only
// from a Result.
package sim

import (
	"fmt"
	"math"

	"wormmesh/internal/core"
	"wormmesh/internal/report"
	"wormmesh/internal/topology"
)

// LinkMetric selects which per-link counter a view or table renders.
type LinkMetric int

const (
	// LinkFlits is forwarded flits per cycle (link utilization).
	LinkFlits LinkMetric = iota
	// LinkBusy is the fraction of cycles the link had a would-be sender.
	LinkBusy
	// LinkBlocked is the fraction of cycles the link was busy but
	// forwarded nothing (credit exhaustion or switch contention).
	LinkBlocked
)

func (m LinkMetric) String() string {
	switch m {
	case LinkFlits:
		return "flits"
	case LinkBusy:
		return "busy"
	case LinkBlocked:
		return "blocked"
	}
	return fmt.Sprintf("LinkMetric(%d)", int(m))
}

// counter returns the metric's raw counter row from ls.
func (m LinkMetric) counter(ls *core.LinkStats) []int64 {
	switch m {
	case LinkBusy:
		return ls.Busy
	case LinkBlocked:
		return ls.Blocked
	}
	return ls.Flits
}

// linkExists reports whether node id has a physical link in direction d:
// the neighbor exists and both endpoints are healthy.
func (r Result) linkExists(id topology.NodeID, d topology.Direction) bool {
	if r.Faults.IsFaulty(id) {
		return false
	}
	nb := r.Faults.Topo.NeighborID(id, d)
	return nb != topology.Invalid && !r.Faults.IsFaulty(nb)
}

// LinkView builds the four-direction composite congestion map for one
// metric, normalized per measured cycle. Nonexistent links (mesh edge
// or faulty endpoint) are NaN and render blank; faulty nodes are marked
// 'X' and f-ring nodes 'o'. It returns an error when the run collected
// no link telemetry (Config.ChannelTelemetry off).
func (r Result) LinkView(metric LinkMetric) (*report.LinkView, error) {
	ls := r.Links
	if ls == nil {
		return nil, fmt.Errorf("sim: no link telemetry collected (set Config.ChannelTelemetry)")
	}
	mesh := r.Faults.Topo
	n := mesh.NodeCount()
	cycles := float64(r.Stats.Cycles)
	if cycles == 0 {
		cycles = 1
	}
	raw := metric.counter(ls)
	wraps := mesh.Kind() == "torus"
	lv := &report.LinkView{
		Title:    fmt.Sprintf("per-link %s map (%s/cycle; X = faulty, o = f-ring node):", metric, metric),
		Width:    mesh.Width(),
		Height:   mesh.Height(),
		NodeMark: make([]byte, n),
		WrapX:    wraps,
		WrapY:    wraps,
		Legend:   true,
	}
	for d := 0; d < topology.NumDirs; d++ {
		lv.Dir[d] = make([]float64, n)
	}
	for id := topology.NodeID(0); int(id) < n; id++ {
		switch {
		case r.Faults.IsFaulty(id):
			lv.NodeMark[id] = 'X'
		case r.Faults.OnAnyRing(id):
			lv.NodeMark[id] = 'o'
		}
		for d := topology.Direction(0); d < topology.NumDirs; d++ {
			if !r.linkExists(id, d) {
				lv.Dir[d][id] = math.NaN()
				continue
			}
			lv.Dir[d][id] = float64(raw[core.LinkID(id, d)]) / cycles
		}
	}
	return lv, nil
}

// LinkTable builds the per-link CSV table: one row per existing
// directional link with all three counters and the f-ring tag.
func (r Result) LinkTable() (*report.Table, error) {
	ls := r.Links
	if ls == nil {
		return nil, fmt.Errorf("sim: no link telemetry collected (set Config.ChannelTelemetry)")
	}
	mesh := r.Faults.Topo
	t := report.NewTable("node", "x", "y", "dir", "flits", "busy_cycles", "blocked_cycles", "on_ring")
	for id := topology.NodeID(0); int(id) < mesh.NodeCount(); id++ {
		c := mesh.CoordOf(id)
		for d := topology.Direction(0); d < topology.NumDirs; d++ {
			if !r.linkExists(id, d) {
				continue
			}
			li := core.LinkID(id, d)
			ring := 0
			if ls.OnRing[li] {
				ring = 1
			}
			t.AddRow(int(id), c.X, c.Y, d.String(), ls.Flits[li], ls.Busy[li], ls.Blocked[li], ring)
		}
	}
	return t, nil
}

// RingSplit aggregates one per-link counter into on-ring and off-ring
// means (per existing link), the measure the hotspot study reports.
type RingSplit struct {
	OnRingLinks  int
	OffRingLinks int
	OnRingMean   float64 // mean counter value over on-ring links
	OffRingMean  float64 // mean counter value over off-ring links
}

// Ratio returns OnRingMean/OffRingMean, or NaN when either side is
// empty or the off-ring mean is zero.
func (s RingSplit) Ratio() float64 {
	if s.OnRingLinks == 0 || s.OffRingLinks == 0 || s.OffRingMean == 0 {
		return math.NaN()
	}
	return s.OnRingMean / s.OffRingMean
}

// RingSplit computes the on-/off-ring mean of one link metric over the
// run's existing links (raw counter units, not normalized per cycle —
// ratios are scale-free).
func (r Result) RingSplit(metric LinkMetric) (RingSplit, error) {
	ls := r.Links
	if ls == nil {
		return RingSplit{}, fmt.Errorf("sim: no link telemetry collected (set Config.ChannelTelemetry)")
	}
	raw := metric.counter(ls)
	mesh := r.Faults.Topo
	var s RingSplit
	var onSum, offSum int64
	for id := topology.NodeID(0); int(id) < mesh.NodeCount(); id++ {
		for d := topology.Direction(0); d < topology.NumDirs; d++ {
			if !r.linkExists(id, d) {
				continue
			}
			li := core.LinkID(id, d)
			if ls.OnRing[li] {
				s.OnRingLinks++
				onSum += raw[li]
			} else {
				s.OffRingLinks++
				offSum += raw[li]
			}
		}
	}
	if s.OnRingLinks > 0 {
		s.OnRingMean = float64(onSum) / float64(s.OnRingLinks)
	}
	if s.OffRingLinks > 0 {
		s.OffRingMean = float64(offSum) / float64(s.OffRingLinks)
	}
	return s, nil
}

// LatencyAnatomy renders the latency decomposition of one run: the mean
// cycles per component (source-queue wait, routing wait, blocked,
// moving, plus the f-ring overlay), each component's share of the total,
// and the histogram percentiles. The four disjoint components sum to
// the mean latency exactly (the engine's partition invariant).
func LatencyAnatomy(st core.Stats) *report.Table {
	t := report.NewTable("component", "mean_cycles", "share%")
	n := float64(st.LatencyCount)
	share := func(sum int64) any {
		if st.LatencySum == 0 {
			return math.NaN()
		}
		return 100 * float64(sum) / float64(st.LatencySum)
	}
	mean := func(sum int64) any {
		if n == 0 {
			return math.NaN()
		}
		return float64(sum) / n
	}
	t.AddRow("source-queue wait", mean(st.LatQueueSum), share(st.LatQueueSum))
	t.AddRow("routing (VC alloc) wait", mean(st.LatRouteSum), share(st.LatRouteSum))
	t.AddRow("blocked (credit/switch)", mean(st.LatBlockedSum), share(st.LatBlockedSum))
	t.AddRow("moving", mean(st.LatMovingSum), share(st.LatMovingSum))
	t.AddRow("total (mean latency)", st.AvgLatency(), share(st.LatencySum))
	t.AddRow("f-ring traversal (overlay)", mean(st.LatRingSum), share(st.LatRingSum))
	t.AddRow("p50 latency (<=)", st.Percentile(50), "")
	t.AddRow("p95 latency (<=)", st.Percentile(95), "")
	t.AddRow("p99 latency (<=)", st.Percentile(99), "")
	t.AddRow("max latency", st.LatencyMax, "")
	return t
}
