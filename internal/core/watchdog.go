package core

import (
	"wormmesh/internal/topology"
)

// victim is one message the stall scan selected for recovery, tagged
// with the watchdog mechanism that condemned it.
type victim struct {
	m     *Message
	cause KillCause
}

// watchdog detects global and per-message stalls and applies the
// configured recovery. Minimal-Adaptive routing (and, under faults,
// some BC corner cases) are not provably deadlock-free; the watchdog
// makes such configurations simulable while keeping an honest count of
// recoveries in the statistics — broken down by cause (global
// recoveries vs. per-message stall kills vs. livelock kills) so the
// paper's recovery accounting can tell a network-wide deadlock from a
// local cycle from a circling header.
//
// When the GLOBAL watchdog fires, the event is observable twice over:
// the tracer's WatchdogFired callback (recorded by the flight recorder,
// if installed), and — when a post-mortem hook is set — a full
// Diagnose() report of the wait-for graph captured BEFORE the victim is
// torn down, so the report shows the cycle that actually formed.
func (n *Network) watchdog() {
	if len(n.active) == 0 {
		n.lastGlobalMove = n.cycle
		return
	}
	if n.cycle-n.lastGlobalMove > n.Cfg.DeadlockCycles {
		v := n.recoveryVictim()
		if n.tracer != nil {
			n.tracer.WatchdogFired(v, n.cycle)
		}
		if n.postmortemFn != nil {
			pm := n.diagnose(TriggerWatchdog)
			if v != nil {
				pm.Victim = v.ID
			}
			n.postmortemFn(pm)
		}
		if v != nil {
			n.stats.DeadlockEvents++
			n.kill(v, KillCauseGlobal)
		}
		n.lastGlobalMove = n.cycle
		return
	}
	if (n.Cfg.MessageStallCycles > 0 || n.Cfg.MaxHops > 0) && n.cycle-n.lastStallScan >= n.Cfg.StallScanInterval {
		n.lastStallScan = n.cycle
		// Collect victims first: kill mutates the active set, so the
		// scan must not run over a set that is shifting under it.
		n.victims = n.victims[:0]
		for _, m := range n.active {
			// Stall takes precedence over livelock when both hold — the
			// historical condition order, preserved so the cause split
			// changes no behavior.
			switch {
			case n.Cfg.MessageStallCycles > 0 && n.holdsResources(m) &&
				n.cycle-m.lastMove > n.Cfg.MessageStallCycles:
				n.victims = append(n.victims, victim{m: m, cause: KillCauseStall})
			case n.Cfg.MaxHops > 0 && m.Hops > n.Cfg.MaxHops:
				n.victims = append(n.victims, victim{m: m, cause: KillCauseLivelock})
			}
		}
		for _, v := range n.victims {
			n.kill(v.m, v.cause)
		}
	}
}

// holdsResources reports whether the message owns network channels
// (and therefore could be part of a deadlock cycle).
func (m *Message) holdsResourcesIn(n *Network) bool {
	return m.flitsInjected > 0 || n.routers[m.Src].inj.msg == m
}

func (n *Network) holdsResources(m *Message) bool { return m.holdsResourcesIn(n) }

// recoveryVictim picks the longest-stalled resource-holding message —
// the one the global watchdog will tear down — or nil when no message
// holds network resources.
func (n *Network) recoveryVictim() *Message {
	var victim *Message
	for _, m := range n.active {
		if !n.holdsResources(m) {
			continue
		}
		if victim == nil || m.lastMove < victim.lastMove ||
			(m.lastMove == victim.lastMove && m.ID < victim.ID) {
			victim = m
		}
	}
	return victim
}

// kill removes every flit of m from the network, releases the virtual
// channels it owns (including channels claimed but not yet entered),
// and drops it. A pooled victim is recycled once every engine
// structure has let go of it.
func (n *Network) kill(m *Message, cause KillCause) {
	for i := range n.routers {
		r := &n.routers[i]
		// Iterate backwards: release swap-removes from the active list.
		for j := len(r.active) - 1; j >= 0; j-- {
			s := r.vcAt(r.active[j])
			if s.owner == m {
				n.releaseVC(r, s)
			}
		}
	}
	src := &n.routers[m.Src]
	if src.inj.msg == m {
		src.inj.msg = nil
	}
	if len(src.srcQ) > 0 && src.srcQ[0] == m {
		src.srcQ = popFrontMsg(src.srcQ)
	}
	n.checkIdle(src) // the teardown may have emptied the source router
	n.removeActive(m)
	m.Killed = true
	// Close the victim's latency decomposition before the kill event
	// fires, so tracers and post-mortems see how long each phase starved
	// (telemetry.go).
	m.settleTeardown(n.cycle)
	if n.tracer != nil {
		n.tracer.MessageKilled(m, cause, n.cycle)
	}
	if n.cycle >= n.statsStart {
		n.stats.Killed++
		switch cause {
		case KillCauseGlobal:
			n.stats.KilledGlobal++
		case KillCauseStall:
			n.stats.KilledStall++
		case KillCauseLivelock:
			n.stats.KilledLivelock++
		}
	}
	n.recycle(m)
}

// SetPostmortemHook installs (or, with nil, removes) the function the
// engine calls with a Diagnose() report each time the GLOBAL watchdog
// fires, before recovery tears the victim down. The hook runs
// synchronously on the simulation goroutine and must treat the report
// as read-only context; it fires only on deadlock recovery, so it may
// allocate and perform I/O freely.
func (n *Network) SetPostmortemHook(fn func(*Postmortem)) { n.postmortemFn = fn }

// ResetStats starts a fresh measurement window at the current cycle
// (the paper discards the first 10 000 of 30 000 cycles as warm-up).
func (n *Network) ResetStats() {
	n.stats.reset()
	n.statsStart = n.cycle
	for i := range n.routers {
		n.routers[i].crossings = 0
	}
	// The per-link telemetry counters share the measurement window.
	n.resetLinkCounters()
}

// LiveCounters is the scalar subset of the running statistics that a
// WindowSampler reads at each window close. Unlike Snapshot it copies
// no per-VC or per-node arrays, so sampling it mid-run costs nothing
// but a handful of loads.
type LiveCounters struct {
	Cycle          int64
	Generated      int64
	Injected       int64
	Delivered      int64
	DeliveredFlits int64
	Killed         int64
	KilledGlobal   int64
	KilledStall    int64
	KilledLivelock int64
	DeadlockEvents int64
	// LatencySum/LatencyCount mirror the Stats latency accumulators so
	// interval samplers (WindowSampler, steady-state detection) can
	// compute window-mean latency from deltas without a Snapshot.
	LatencySum   int64
	LatencyCount int64
}

// LiveCounters returns the current scalar counters (measurement window
// to date). It is read-only and allocation-free.
func (n *Network) LiveCounters() LiveCounters {
	return LiveCounters{
		Cycle:          n.cycle,
		Generated:      n.stats.Generated,
		Injected:       n.stats.Injected,
		Delivered:      n.stats.Delivered,
		DeliveredFlits: n.stats.DeliveredFlits,
		Killed:         n.stats.Killed,
		KilledGlobal:   n.stats.KilledGlobal,
		KilledStall:    n.stats.KilledStall,
		KilledLivelock: n.stats.KilledLivelock,
		DeadlockEvents: n.stats.DeadlockEvents,
		LatencySum:     n.stats.LatencySum,
		LatencyCount:   n.stats.LatencyCount,
	}
}

// Snapshot finalizes and returns the statistics for the window from
// the last ResetStats (or construction) to now. Busy time of channels
// still owned is included up to the current cycle.
func (n *Network) Snapshot() Stats {
	s := n.stats.clone()
	s.Cycles = n.cycle - n.statsStart
	s.HealthyNodes = n.Faults.HealthyCount()
	for i := range n.routers {
		r := &n.routers[i]
		s.NodeCrossings[i] = r.crossings
		for _, code := range r.active {
			vs := r.vcAt(code)
			start := vs.acquired
			if start < n.statsStart {
				start = n.statsStart
			}
			s.VCBusy[vs.idx] += n.cycle - start
		}
	}
	s.PhysicalChannels = n.countPhysicalChannels()
	return s
}

// countPhysicalChannels counts directed links between healthy nodes
// (the denominator of per-VC utilization).
func (n *Network) countPhysicalChannels() int {
	count := 0
	for i := range n.routers {
		id := topology.NodeID(i)
		if n.Faults.IsFaulty(id) {
			continue
		}
		for d := topology.Direction(0); d < topology.NumDirs; d++ {
			nb := n.Topo.NeighborID(id, d)
			if nb != topology.Invalid && !n.Faults.IsFaulty(nb) {
				count++
			}
		}
	}
	return count
}
