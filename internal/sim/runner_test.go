package sim

import (
	"testing"
)

// runnerScenarios is a mixed workload exercising every reuse path one
// sweep worker hits: algorithm changes (different fortified wrappers
// over the same model), fault-pattern changes (neighbor-table rebuild),
// load changes (source re-seeding), and a mesh change (network
// reallocation).
func runnerScenarios() []Params {
	base := goldenParams()
	mk := func(mut func(*Params)) Params {
		p := base
		mut(&p)
		return p
	}
	return []Params{
		base,
		mk(func(p *Params) { p.Algorithm = "Duato-Nbc" }),
		mk(func(p *Params) { p.Algorithm = "Boura-FT"; p.FaultSeed = 7; p.Seed = 99 }),
		mk(func(p *Params) { p.Rate = 0.002 }),
		mk(func(p *Params) { p.Algorithm = "Nbc"; p.FaultSeed = 7 }),
		mk(func(p *Params) { p.Faults = 0 }),
		mk(func(p *Params) { p.Width = 8; p.Height = 8; p.Faults = 4 }),
		base, // and back to the first scenario: full-circle reuse
	}
}

// TestRunnerMatchesOneShot locks in the Runner reuse invariant: a
// sequence of simulations through ONE Runner — reusing the network via
// Reset, the traffic source, both RNGs and
// the fault/algorithm/pattern caches — produces Stats bit-identical to
// running each Params through the fresh one-shot path.
func TestRunnerMatchesOneShot(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	for i, p := range runnerScenarios() {
		fresh, err := Run(p)
		if err != nil {
			t.Fatalf("scenario %d: one-shot: %v", i, err)
		}
		reused, err := r.Run(p)
		if err != nil {
			t.Fatalf("scenario %d: runner: %v", i, err)
		}
		if fresh.Stats.Delivered == 0 {
			t.Fatalf("scenario %d delivered nothing", i)
		}
		if !statsEqual(fresh.Stats, reused.Stats) {
			t.Errorf("scenario %d (%s faults=%d rate=%g): runner diverged from one-shot:\n  fresh:  %+v\n  reused: %+v",
				i, p.Algorithm, p.Faults, p.Rate, fresh.Stats, reused.Stats)
		}
		if fresh.FaultCount != reused.FaultCount || fresh.RingNodes != reused.RingNodes || fresh.Regions != reused.Regions {
			t.Errorf("scenario %d: fault topology summary diverged", i)
		}
	}
}

// TestRunnerRepeatIdentical asserts that re-running the same Params
// through the same Runner is idempotent — Reset restores the exact
// post-construction state, so back-to-back runs cannot drift.
func TestRunnerRepeatIdentical(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	p := goldenParams()
	a, err := r.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Delivered == 0 {
		t.Fatal("golden scenario delivered nothing")
	}
	if !statsEqual(a.Stats, b.Stats) {
		t.Errorf("repeat through one Runner diverged:\n  a: %+v\n  b: %+v", a.Stats, b.Stats)
	}
}

// TestEngineWorkersIgnored pins the deprecated EngineWorkers field as
// inert: a Runner accepts a worker count and runs the serial engine,
// so the Stats equal those of the zero value bit for bit.
func TestEngineWorkersIgnored(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	p := goldenParams()
	serial, err := r.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.EngineWorkers = 2
	workers, err := r.Run(p)
	if err != nil {
		t.Fatalf("EngineWorkers = 2 rejected: %v", err)
	}
	if !statsEqual(serial.Stats, workers.Stats) {
		t.Errorf("EngineWorkers = 2 changed the run:\n  0: %+v\n  2: %+v", serial.Stats, workers.Stats)
	}
}
