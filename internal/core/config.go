package core

import "fmt"

// Config holds the router micro-architecture parameters the paper does
// not vary (but also does not always state); defaults follow the
// values common in the fault-tolerant wormhole literature.
type Config struct {
	// NumVCs is the number of virtual channels per physical channel.
	// The paper uses 24 for the 10×10 mesh.
	NumVCs int
	// BufDepth is the flit capacity of each virtual-channel buffer.
	BufDepth int
	// EjectBW is the number of flits a node can consume per cycle.
	EjectBW int
	// DeadlockCycles is the watchdog threshold: if no flit in the whole
	// network moves for this many cycles, the watchdog triggers.
	DeadlockCycles int64
	// MessageStallCycles additionally triggers recovery for a single
	// message whose flits have not moved for this many cycles while the
	// rest of the network is making progress (catches local deadlock
	// cycles that global motion masks). Zero disables the per-message
	// check.
	MessageStallCycles int64
	// StallScanInterval is how often (in cycles) the watchdog scans the
	// active set for per-message stalls and livelocks. The scan is
	// O(in-flight messages), so it runs on a coarse cadence rather than
	// every cycle; the historical hardcoded value was 1024, which stays
	// the default. Values <= 0 fall back to 1024 at construction so
	// hand-built Configs keep their old behavior; tests that need a
	// stall scan to fire deterministically fast set it to 1.
	StallScanInterval int64
	// MaxHops is the livelock guard: a message that exceeds this many
	// hops (possible only through misrouting or pathological f-ring
	// circling) is torn down and counted. Zero disables the guard.
	MaxHops int32
	// Selection picks among free candidate channels.
	Selection SelectionPolicy
	// MaxSourceQueue bounds the per-node source queue; when full, newly
	// generated messages are refused (counted as rejected offers).
	// Zero means unbounded.
	MaxSourceQueue int
	// ChannelTelemetry enables the per-link congestion counters (flits
	// forwarded, busy cycles, blocked cycles per directional physical
	// link, with f-ring tagging — see telemetry.go). Recording is
	// read-only and RNG-free, so Stats are bit-identical either way;
	// the arrays are sized at construction, so toggling requires a new
	// network (a Runner rebuilds automatically on a Config change).
	ChannelTelemetry bool
}

// DefaultConfig returns the configuration used throughout the paper's
// experiments: 24 VCs per physical channel, 2-flit VC buffers, one
// ejection flit per cycle.
func DefaultConfig() Config {
	return Config{
		NumVCs:             24,
		BufDepth:           2,
		EjectBW:            1,
		DeadlockCycles:     3000,
		MessageStallCycles: 5000,
		StallScanInterval:  1024,
		MaxHops:            0, // set per-mesh by the sim layer
		Selection:          SelectRandomChannel,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumVCs < 1 || c.NumVCs > 255 {
		return fmt.Errorf("core: NumVCs %d out of range [1,255]", c.NumVCs)
	}
	if c.BufDepth < 1 {
		return fmt.Errorf("core: BufDepth %d < 1", c.BufDepth)
	}
	if c.EjectBW < 1 {
		return fmt.Errorf("core: EjectBW %d < 1", c.EjectBW)
	}
	if c.DeadlockCycles < 1 {
		return fmt.Errorf("core: DeadlockCycles %d < 1", c.DeadlockCycles)
	}
	if c.MaxSourceQueue < 0 {
		return fmt.Errorf("core: MaxSourceQueue %d < 0", c.MaxSourceQueue)
	}
	return nil
}
