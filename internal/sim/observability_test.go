package sim

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"wormmesh/internal/core"
)

// TestFlightRecorderGoldenNeutral locks in the observation contract:
// recording is read-only and RNG-free, so the golden scenario's Stats
// are bit-identical with the flight recorder on or off.
func TestFlightRecorderGoldenNeutral(t *testing.T) {
	base := goldenRun(t)
	p := goldenParams()
	p.FlightRecorder = core.NewFlightRecorder(512)
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !statsEqual(base, res.Stats) {
		t.Errorf("flight recorder changed the run:\n  off: %+v\n  on:  %+v", base, res.Stats)
	}
}

// forcedDeadlockParams is a scenario engineered to actually deadlock:
// Minimal-Adaptive with the bare minimum of virtual channels and no
// supervision, saturating load, and a hair-trigger watchdog. The
// paper's point about unrestricted adaptivity is exactly that this
// wedges.
func forcedDeadlockParams() Params {
	p := DefaultParams()
	p.Algorithm = "Minimal-Adaptive"
	p.Pattern = "uniform"
	p.Width, p.Height = 6, 6
	p.Rate = 0.05 // saturating for 8-flit messages
	p.MessageLength = 8
	p.Seed = 3
	p.WarmupCycles = 0
	p.MeasureCycles = 6000
	p.Config = DefaultEngineConfig()
	p.Config.NumVCs = 5 // 1 adaptive VC + the 4 reserved ring channels
	p.Config.DeadlockCycles = 300
	p.Config.MessageStallCycles = 0 // global watchdog only
	return p
}

// TestForcedDeadlockPostmortem runs the wedge-prone scenario with a
// post-mortem writer installed and checks the whole failure path: the
// watchdog fires, the report names a genuine wait cycle with fully
// blocked messages, and the flight recorder (auto-installed by the
// writer) supplies the recent event tail.
func TestForcedDeadlockPostmortem(t *testing.T) {
	p := forcedDeadlockParams()
	var pmBuf bytes.Buffer
	p.PostmortemWriter = &pmBuf
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DeadlockEvents == 0 {
		t.Fatal("scenario did not deadlock — watchdog never fired")
	}
	if res.Stats.KilledGlobal == 0 {
		t.Error("global watchdog fired but KilledGlobal is zero")
	}
	out := pmBuf.String()
	for _, want := range []string{
		"=== deadlock post-mortem: trigger=watchdog",
		"recovery victim: msg#",
		"wait cycle",
		"FULLY BLOCKED",
		"held by msg#",
		"engine events",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("post-mortem missing %q; got:\n%s", want, clip(out, 2000))
		}
	}
}

// TestPostmortemGoldenNeutral re-runs the deadlock scenario without
// any observer and checks the Stats are bit-identical: diagnosis on
// the watchdog path mutates nothing and draws nothing from the RNG.
func TestPostmortemGoldenNeutral(t *testing.T) {
	p := forcedDeadlockParams()
	plain, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.DeadlockEvents == 0 {
		t.Fatal("scenario did not deadlock")
	}
	observed := p
	var pmBuf bytes.Buffer
	observed.PostmortemWriter = &pmBuf
	observed.FlightRecorder = core.NewFlightRecorder(256)
	res, err := Run(observed)
	if err != nil {
		t.Fatal(err)
	}
	if !statsEqual(plain.Stats, res.Stats) {
		t.Errorf("post-mortem observation changed the run:\n  plain:    %+v\n  observed: %+v",
			plain.Stats, res.Stats)
	}
	if pmBuf.Len() == 0 {
		t.Error("no post-mortem written despite watchdog firings")
	}
}

// TestRunnerFlightRecorderNeutral checks the reuse path too: a Runner
// executing the golden scenario with a streaming flight recorder
// between two plain runs stays bit-identical throughout.
func TestRunnerFlightRecorderNeutral(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	base := goldenRun(t)
	p := goldenParams()
	for i, variant := range []func(*Params){
		func(p *Params) {},
		func(p *Params) {
			p.FlightRecorder = core.NewFlightRecorder(512)
			p.FlightRecorder.Stream(io.Discard, true)
		},
		func(p *Params) {},
	} {
		q := p
		variant(&q)
		res, err := r.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if !statsEqual(base, res.Stats) {
			t.Errorf("runner pass %d diverged from one-shot golden Stats", i)
		}
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestTraceWriteErrorFailsRun: a flight-recorder stream whose writer
// fails turns the run into a "sim: trace:" error rather than a
// silently truncated trace.
func TestTraceWriteErrorFailsRun(t *testing.T) {
	p := goldenParams()
	p.FlightRecorder = core.NewFlightRecorder(64)
	p.FlightRecorder.Stream(failingWriter{}, false)
	_, err := Run(p)
	if err == nil || !strings.HasPrefix(err.Error(), "sim: trace: ") || !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("err = %v, want a sim: trace: error wrapping the write error", err)
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// TestStatsKillCauseSplit checks the per-cause kill accounting sums to
// the total on a run where the global watchdog is the only recovery
// mechanism.
func TestStatsKillCauseSplit(t *testing.T) {
	p := forcedDeadlockParams()
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Killed == 0 {
		t.Fatal("no kills in the forced-deadlock scenario")
	}
	if st.KilledGlobal+st.KilledStall+st.KilledLivelock != st.Killed {
		t.Errorf("kill causes %d+%d+%d do not sum to Killed=%d",
			st.KilledGlobal, st.KilledStall, st.KilledLivelock, st.Killed)
	}
	if st.KilledStall != 0 {
		t.Errorf("KilledStall = %d with stall recovery disabled", st.KilledStall)
	}
}
