package sim

import (
	"testing"

	"wormmesh/internal/core"
)

// TestTelemetryNeutralSampler locks in the WindowSampler's observer
// contract: sampling is read-only and RNG-free, so the golden
// scenario's Stats are bit-identical with a sampler attached or not.
// (The name keeps it inside the telemetry-neutrality CI step's
// -run TelemetryNeutral filter.)
func TestTelemetryNeutralSampler(t *testing.T) {
	base := goldenRun(t)
	p := goldenParams()
	s := core.NewWindowSampler(256, 8) // tiny ring: eviction must not matter either
	p.Sampler = s
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !statsEqual(base, res.Stats) {
		t.Errorf("sampler changed the run:\n  off: %+v\n  on:  %+v", base, res.Stats)
	}
	total := p.WarmupCycles + p.MeasureCycles
	wantSeq := total/256 + 1 // 11 full windows + the flushed tail
	if total%256 == 0 {
		wantSeq = total / 256
	}
	if s.Seq() != wantSeq {
		t.Errorf("sampler produced %d windows over %d cycles (W=256), want %d", s.Seq(), total, wantSeq)
	}
	last, ok := s.Latest()
	if !ok || last.End != total {
		t.Errorf("last window ends at %d, want %d", last.End, total)
	}
}

// TestTelemetryNeutralSamplerWithLinks runs the golden scenario with
// both link telemetry and a sampler attached: still bit-identical, and
// the snapshots carry per-link busy rows.
func TestTelemetryNeutralSamplerWithLinks(t *testing.T) {
	base := goldenRun(t)
	p := goldenParams()
	p.Config = DefaultEngineConfig()
	p.Config.ChannelTelemetry = true
	s := core.NewWindowSampler(256, 64)
	p.Sampler = s
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !statsEqual(base, res.Stats) {
		t.Errorf("sampler+telemetry changed the run:\n  off: %+v\n  on:  %+v", base, res.Stats)
	}
	busy := 0
	for _, w := range s.Since(0) {
		for _, b := range w.LinkBusy {
			if b > 0 {
				busy++
			}
		}
	}
	if busy == 0 {
		t.Error("no busy link fractions recorded across the whole run")
	}
}

// TestSamplerRunnerReuse checks the reuse path: a Runner alternating
// sampler on/off stays bit-identical with the one-shot baseline, and
// Start resets the ring between runs.
func TestSamplerRunnerReuse(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	base := goldenRun(t)
	s := core.NewWindowSampler(512, 128)
	var prevSeq int64
	for i, attach := range []bool{true, false, true} {
		p := goldenParams()
		if attach {
			p.Sampler = s
		}
		res, err := r.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if !statsEqual(base, res.Stats) {
			t.Errorf("run %d (sampler=%v) diverged from baseline", i, attach)
		}
		if attach {
			if prevSeq != 0 && s.Seq() != prevSeq {
				t.Errorf("run %d: Seq %d differs from first attached run's %d (Start should reset)",
					i, s.Seq(), prevSeq)
			}
			prevSeq = s.Seq()
		}
	}
}

// steadyParams is the golden scenario with batch width shrunk so the
// detectors have enough batches to work with inside a test-sized run.
func steadyParams() Params {
	p := goldenParams()
	p.WarmupCycles = 4000 // cap for detection
	p.MeasureCycles = 4000
	p.SteadyWindow = 100
	return p
}

// TestMSERWarmupDetects runs the mid-load golden scenario with MSER
// warm-up detection: the detected truncation must land strictly before
// the cap (this load stabilizes quickly) and be a whole number of
// batches.
func TestMSERWarmupDetects(t *testing.T) {
	p := steadyParams()
	p.WarmupMode = "mser"
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	eff := res.Stats.EffectiveWarmup
	if eff <= 0 || eff >= p.WarmupCycles {
		t.Fatalf("EffectiveWarmup = %d, want detection inside (0, %d)", eff, p.WarmupCycles)
	}
	if eff%p.SteadyWindow != 0 {
		t.Errorf("EffectiveWarmup %d is not a multiple of the %d-cycle batch", eff, p.SteadyWindow)
	}
	if res.Stats.Cycles != p.MeasureCycles {
		t.Errorf("measurement ran %d cycles, want the full %d", res.Stats.Cycles, p.MeasureCycles)
	}
}

// TestMSEREquivalentToFixed locks in the bit-exactness argument for
// adaptive warm-up: because detection is read-only and RNG-free, an
// "mser" run must be Stats-identical to a fixed run whose WarmupCycles
// equals the detected EffectiveWarmup.
func TestMSEREquivalentToFixed(t *testing.T) {
	p := steadyParams()
	p.WarmupMode = "mser"
	adaptive, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	q := steadyParams()
	q.WarmupMode = ""
	q.SteadyWindow = 0
	q.WarmupCycles = adaptive.Stats.EffectiveWarmup
	fixed, err := Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if !statsEqual(adaptive.Stats, fixed.Stats) {
		t.Errorf("mser run differs from fixed run at the detected cut %d:\n  mser:  %+v\n  fixed: %+v",
			adaptive.Stats.EffectiveWarmup, adaptive.Stats, fixed.Stats)
	}
}

// TestStopRelPrecision runs the stopping rule at a loose target: the
// mid-load scenario's batch means are tight, so measurement must stop
// well before the cap with the achieved half-width reported.
func TestStopRelPrecision(t *testing.T) {
	p := steadyParams()
	p.MeasureCycles = 50000 // generous cap the rule should beat
	p.StopRelPrecision = 0.2
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles >= 50000 {
		t.Errorf("measurement ran to the %d-cycle cap; the ±20%% rule should stop earlier", res.Stats.Cycles)
	}
	if res.Stats.Cycles%p.SteadyWindow != 0 {
		t.Errorf("stopped at %d cycles, not a batch boundary", res.Stats.Cycles)
	}
	half := res.Stats.LatencyCIHalf
	if half <= 0 {
		t.Fatalf("LatencyCIHalf = %v, want > 0", half)
	}
	if mean := res.Stats.AvgLatency(); half > 0.25*mean {
		// The rule compares against the batch-means mean, which can
		// differ slightly from the overall mean; allow a little slack.
		t.Errorf("stopped with half-width %.2f at mean %.2f — precision target missed", half, mean)
	}
	// Determinism: the stop decision depends only on the deterministic
	// counter stream, so a second run reproduces it exactly.
	res2, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !statsEqual(res.Stats, res2.Stats) {
		t.Error("stop-rule run is not reproducible")
	}
}

// TestWarmupModeValidation rejects unknown modes.
func TestWarmupModeValidation(t *testing.T) {
	p := goldenParams()
	p.WarmupMode = "schruben"
	if _, err := Run(p); err == nil {
		t.Fatal("unknown WarmupMode accepted")
	}
}

// TestMSERTruncation unit-tests the truncation statistic on shaped
// series: a step transient truncates at the step, a flat series keeps
// everything.
func TestMSERTruncation(t *testing.T) {
	series := make([]float64, 40)
	for i := range series {
		if i < 12 {
			series[i] = 100 - float64(i)*5 // decaying transient
		} else {
			series[i] = 40 + float64(i%3) // steady with small wobble
		}
	}
	d, ok := mserTruncation(series)
	if !ok {
		t.Fatal("no truncation point on a step series")
	}
	if d < 8 || d > 16 {
		t.Errorf("truncation at %d, want near the transient's end (12)", d)
	}
	flat := make([]float64, 30)
	for i := range flat {
		flat[i] = 7
	}
	d, ok = mserTruncation(flat)
	if !ok || d != 0 {
		t.Errorf("flat series truncates at %d (ok=%v), want 0", d, ok)
	}
	if _, ok := mserTruncation(make([]float64, 3)); ok {
		t.Error("a 3-point series should be too short to truncate")
	}
}

// TestWindowsCollected checks the series meshsim -windows prints: an
// attached sampler covers the whole run in contiguous windows aligned
// to cycle 0, and the windows after the warm-up cut account for every
// measured delivery. When the cut falls inside a window, that window
// straddles ResetStats and must count only the tally since the reset.
func TestWindowsCollected(t *testing.T) {
	for _, c := range []struct {
		rate                    float64
		warmup, measure, window int64
	}{
		{0.001, 2000, 4000, 1000}, // cut on a window boundary
		{0.002, 520, 3000, 512},
		{0.002, 600, 3000, 512},
		{0.002, 700, 3000, 512},
	} {
		p := DefaultParams()
		p.Rate = c.rate
		p.WarmupCycles = c.warmup
		p.MeasureCycles = c.measure
		s := core.NewWindowSampler(c.window, 16)
		p.Sampler = s
		res, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		total := c.warmup + c.measure
		ws := s.Since(0)
		if want := (total + c.window - 1) / c.window; int64(len(ws)) != want {
			t.Fatalf("warm-up %d: windows = %d, want %d", c.warmup, len(ws), want)
		}
		var delivered, flits int64
		for i, w := range ws {
			if w.Start != int64(i)*c.window || w.End != min(w.Start+c.window, total) {
				t.Errorf("warm-up %d: window %d spans [%d,%d)", c.warmup, i, w.Start, w.End)
			}
			if w.End > res.Stats.EffectiveWarmup {
				delivered += w.Delivered
				flits += w.DeliveredFlits
			}
		}
		if delivered != res.Stats.Delivered || flits != res.Stats.DeliveredFlits {
			t.Errorf("warm-up %d: measured windows deliver %d msgs / %d flits, Stats %d / %d",
				c.warmup, delivered, flits, res.Stats.Delivered, res.Stats.DeliveredFlits)
		}
	}
}
