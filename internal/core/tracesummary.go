package core

import (
	"fmt"
	"sort"

	"wormmesh/internal/trace"
)

// TraceSummary aggregates a recorded event stream into per-message
// journeys — the offline counterpart of the live statistics, useful
// when digging into a single run's behavior from a `meshsim -trace`
// file.
type TraceSummary struct {
	Messages  int
	Delivered int
	Killed    int
	// KilledByCause splits Killed by recovery mechanism: "global"
	// (network-wide watchdog), "stall" (per-message stall scan),
	// "livelock" (hop-budget guard). Traces recorded before the cause
	// field existed land under "" and still sum into Killed.
	KilledByCause map[string]int
	// WatchdogFires counts global-watchdog events, including those
	// that found no resource-holding victim to tear down.
	WatchdogFires int
	FlitMoves     int64
	// Hops[msg] counts route grants per message; Journeys maps each
	// delivered message to its injection→delivery span in cycles.
	Hops     map[int64]int
	Journeys map[int64]int64
	// HotNodes lists the nodes that routed the most headers, busiest
	// first (ties by node id).
	HotNodes []NodeActivity
}

// NodeActivity pairs a node with its header-routing count.
type NodeActivity struct {
	Node   int32
	Routed int
}

// SummarizeTrace folds a decoded event stream (a -trace file or a
// flight-recorder dump) into a summary. Events may be partial (e.g. a
// run cut short, or a ring's tail): messages without a deliver event
// simply stay undelivered in the counts.
func SummarizeTrace(events []trace.EngineEvent) TraceSummary {
	s := TraceSummary{
		Hops:          map[int64]int{},
		Journeys:      map[int64]int64{},
		KilledByCause: map[string]int{},
	}
	injected := map[int64]int64{}
	routedBy := map[int32]int{}
	seen := map[int64]bool{}
	for _, e := range events {
		// Watchdog events carry the victim's ID (or zeros when no
		// victim held resources); neither names a new message.
		if e.Kind != "watchdog" && !seen[e.Msg] {
			seen[e.Msg] = true
			s.Messages++
		}
		switch e.Kind {
		case "inject":
			injected[e.Msg] = e.Cycle
		case "route":
			s.Hops[e.Msg]++
			routedBy[e.Node]++
		case "flit":
			s.FlitMoves++
		case "deliver":
			s.Delivered++
			if inj, ok := injected[e.Msg]; ok {
				s.Journeys[e.Msg] = e.Cycle - inj
			}
		case "kill":
			s.Killed++
			s.KilledByCause[e.Cause]++
		case "watchdog":
			s.WatchdogFires++
		}
	}
	for node, n := range routedBy {
		s.HotNodes = append(s.HotNodes, NodeActivity{Node: node, Routed: n})
	}
	sort.Slice(s.HotNodes, func(i, j int) bool {
		if s.HotNodes[i].Routed != s.HotNodes[j].Routed {
			return s.HotNodes[i].Routed > s.HotNodes[j].Routed
		}
		return s.HotNodes[i].Node < s.HotNodes[j].Node
	})
	return s
}

// String renders the headline numbers, splitting kills by cause when
// any occurred.
func (s TraceSummary) String() string {
	out := fmt.Sprintf("trace: %d messages (%d delivered, %d killed), %d flit moves",
		s.Messages, s.Delivered, s.Killed, s.FlitMoves)
	if s.Killed > 0 {
		out += fmt.Sprintf(" [killed: %d global, %d stall, %d livelock]",
			s.KilledByCause[KillCauseGlobal.String()],
			s.KilledByCause[KillCauseStall.String()],
			s.KilledByCause[KillCauseLivelock.String()])
	}
	if s.WatchdogFires > 0 {
		out += fmt.Sprintf(", %d watchdog firings", s.WatchdogFires)
	}
	return out
}
