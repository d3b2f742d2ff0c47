package trace

// WindowPoint is one window of a run's time-resolved telemetry series,
// the dependency-free mirror of core.WindowSnapshot (minus the bulky
// per-link rows). The serve layer converts at the bridge
// (serve.WindowPoints) so this package stays free of engine imports.
type WindowPoint struct {
	Seq   int64 `json:"seq"`
	Start int64 `json:"start"`
	End   int64 `json:"end"`

	Generated      int64 `json:"generated"`
	Delivered      int64 `json:"delivered"`
	DeliveredFlits int64 `json:"delivered_flits"`
	Killed         int64 `json:"killed,omitempty"`

	InFlight     int `json:"in_flight"`
	BlockedLinks int `json:"blocked_links,omitempty"`

	// AvgLatency is the window-mean message latency in cycles;
	// Throughput is accepted traffic in flits per node per cycle.
	AvgLatency float64 `json:"avg_latency"`
	Throughput float64 `json:"throughput"`
}
