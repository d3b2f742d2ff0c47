package core_test

import (
	"testing"

	"wormmesh/internal/core"
	"wormmesh/internal/sim"
)

// TestWindowSamplerCarriesEngineSeries runs a saturated faulted cell
// with link telemetry and an aggressive stall watchdog, with a warm-up
// cut that falls inside a window, and checks what the window series
// publishes for the metrics bridge: per-cause kills partition Killed,
// the latency percentiles are ordered, the hot links are ranked and
// bounded by the link's own counters, and the windows that end after
// the cut add up to the run's Stats exactly.
func TestWindowSamplerCarriesEngineSeries(t *testing.T) {
	p := sim.DefaultParams()
	p.Width, p.Height = 6, 6
	p.Rate = 0.2 // far past saturation
	p.MessageLength = 8
	p.WarmupCycles = 700 // not a multiple of the window
	p.MeasureCycles = 2300
	p.Seed = 9
	p.Faults = 4
	p.FaultSeed = 3
	p.Config = sim.DefaultEngineConfig()
	p.Config.ChannelTelemetry = true
	p.Config.MessageStallCycles = 64
	p.Config.StallScanInterval = 16
	p.Sampler = core.NewWindowSampler(256, 0)
	res, err := sim.Run(p)
	if err != nil {
		t.Fatal(err)
	}

	var sum core.WindowSnapshot
	for _, w := range p.Sampler.Since(0) {
		if w.KilledGlobal+w.KilledStall+w.KilledLivelock != w.Killed {
			t.Errorf("window %d: kills by cause %d+%d+%d != Killed %d",
				w.Seq, w.KilledGlobal, w.KilledStall, w.KilledLivelock, w.Killed)
		}
		if w.LatencyP50 > w.LatencyP95 || w.LatencyP95 > w.LatencyP99 {
			t.Errorf("window %d: percentiles out of order: p50=%d p95=%d p99=%d",
				w.Seq, w.LatencyP50, w.LatencyP95, w.LatencyP99)
		}
		// No message arrives faster than its own length in flits, and a
		// window without measured deliveries has no percentiles.
		if measured := w.AvgLatency > 0; measured && w.LatencyP50 < int64(p.MessageLength) ||
			!measured && w.LatencyP50 != -1 {
			t.Errorf("window %d: p50 %d with mean latency %g", w.Seq, w.LatencyP50, w.AvgLatency)
		}
		if w.HotLinks[0].Flits <= 0 {
			t.Errorf("window %d of a saturated run ranks no link with flits: %+v", w.Seq, w.HotLinks)
		}
		cycles := w.End - w.Start
		for r, h := range w.HotLinks {
			if h.ID < 0 || int(h.ID) >= len(w.LinkBusy) {
				t.Fatalf("window %d: hot link %d has id %d outside [0,%d)", w.Seq, r, h.ID, len(w.LinkBusy))
			}
			if r > 0 && h.Flits > w.HotLinks[r-1].Flits {
				t.Errorf("window %d: hot links not descending: %+v", w.Seq, w.HotLinks)
			}
			// A link forwards at most one flit per busy cycle, and
			// LinkBusy is busy*255/cycles rounded down.
			if h.Flits*255 >= (int64(w.LinkBusy[h.ID])+1)*cycles {
				t.Errorf("window %d: hot link %d forwarded %d flits but was busy %d/255 of %d cycles",
					w.Seq, h.ID, h.Flits, w.LinkBusy[h.ID], cycles)
			}
			if w.End > p.WarmupCycles && h.Flits > res.Links.Flits[h.ID] {
				t.Errorf("window %d: hot link %d forwarded %d flits, the whole measurement %d",
					w.Seq, h.ID, h.Flits, res.Links.Flits[h.ID])
			}
		}
		if w.End <= p.WarmupCycles {
			continue
		}
		sum.Generated += w.Generated
		sum.Injected += w.Injected
		sum.Delivered += w.Delivered
		sum.DeliveredFlits += w.DeliveredFlits
		sum.Killed += w.Killed
		sum.KilledGlobal += w.KilledGlobal
		sum.KilledStall += w.KilledStall
		sum.KilledLivelock += w.KilledLivelock
		sum.DeadlockEvents += w.DeadlockEvents
	}
	st := res.Stats
	if st.KilledStall == 0 {
		t.Error("aggressive stall watchdog on a saturated faulty mesh killed nothing")
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"Generated", sum.Generated, st.Generated},
		{"Injected", sum.Injected, st.Injected},
		{"Delivered", sum.Delivered, st.Delivered},
		{"DeliveredFlits", sum.DeliveredFlits, st.DeliveredFlits},
		{"Killed", sum.Killed, st.Killed},
		{"KilledGlobal", sum.KilledGlobal, st.KilledGlobal},
		{"KilledStall", sum.KilledStall, st.KilledStall},
		{"KilledLivelock", sum.KilledLivelock, st.KilledLivelock},
		{"DeadlockEvents", sum.DeadlockEvents, st.DeadlockEvents},
	} {
		if c.got != c.want {
			t.Errorf("%s: post-cut windows sum to %d, Stats say %d", c.name, c.got, c.want)
		}
	}
}
