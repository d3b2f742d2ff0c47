package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"wormmesh"
	"wormmesh/internal/core"
)

// TestMain doubles the test binary as meshsim itself: a child started
// with MESHSIM_RUN_MAIN=1 runs main on its arguments, so the smoke
// tests drive the real flag parsing and output.
func TestMain(m *testing.M) {
	if os.Getenv("MESHSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// meshsim runs the command with a tiny 6×6 cell plus args and returns
// its combined output.
func meshsim(t *testing.T, args ...string) string {
	t.Helper()
	cell := []string{"-width", "6", "-height", "6", "-len", "20", "-rate", "0.004", "-warmup", "1000", "-cycles", "2000"}
	cmd := exec.Command(os.Args[0], append(cell, args...)...)
	cmd.Env = append(os.Environ(), "MESHSIM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("meshsim %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestMeshsimSmoke(t *testing.T) {
	dir := t.TempDir()
	chrome := filepath.Join(dir, "trace.json")
	cache := filepath.Join(dir, "cache")
	for _, c := range []struct {
		name string
		args []string
		want []string
	}{
		{"list", []string{"-list"}, []string{"Duato", "Pbc"}},
		{"run", nil, []string{"measured 1000 cycles after 1000 warm-up", "avg latency (cycles)"}},
		{"windows", []string{"-windows", "500"}, []string{
			"time series (per window):",
			"[500,1000) gen=", "warm-up\n",
			"[1000,1500) gen=",
		}},
		{"chrometrace", []string{"-chrometrace", chrome}, []string{"wrote " + chrome}},
		{"cache miss", []string{"-cache", cache}, []string{"s wall)"}},
		{"cache hit", []string{"-cache", cache}, []string{"(cached result, no simulation)"}},
	} {
		out := meshsim(t, c.args...)
		for _, w := range c.want {
			if !strings.Contains(out, w) {
				t.Errorf("%s: output lacks %q:\n%s", c.name, w, out)
			}
		}
	}
	if b, err := os.ReadFile(chrome); err != nil || !bytes.Contains(b, []byte(`"ph":"C"`)) {
		t.Errorf("chrome trace has no counter events (err %v)", err)
	}
}

// TestRunLive paints the dashboard for a few hundred cycles into a
// buffer.
func TestRunLive(t *testing.T) {
	p := wormmesh.DefaultParams()
	p.Width, p.Height = 6, 6
	p.MessageLength = 20
	p.Rate = 0.004
	p.WarmupCycles, p.MeasureCycles = 100, 300
	p.Sampler = core.NewWindowSampler(50, 16)
	var buf bytes.Buffer
	res, err := runLive(p, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles != 300 {
		t.Errorf("measured %d cycles, want 300", res.Stats.Cycles)
	}
	for _, w := range []string{"cycle 400 of 400", "throughput", "in flight", "busiest outgoing link"} {
		if !strings.Contains(buf.String(), w) {
			t.Errorf("dashboard lacks %q:\n%s", w, buf.String())
		}
	}
}
