package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"wormmesh/internal/core"
	"wormmesh/internal/sim"
)

// smokeScale runs every workload at about 1/20 of its real size.
const smokeScale = 20

func smokeConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	return config{
		workload: workload, seed: 1, seconds: 10, scale: smokeScale, trace: trace, runs: 1,
		root: root, scratch: filepath.Join(root, ".bench_build"), outDir: t.TempDir(),
	}
}

// runWorkload runs one workload in-process and returns its parsed
// result line.
func runWorkload(t *testing.T, cfg config) (*results, runLine) {
	t.Helper()
	t.Cleanup(cleanup.run)
	res := newResults(cfg)
	if err := findWorkload(cfg.workload).run(cfg, res); err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	text, err := res.finish()
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	var line runLine
	if err := json.Unmarshal([]byte(text), &line); err != nil {
		t.Fatalf("%s: result line %q: %v", cfg.workload, text, err)
	}
	return res, line
}

// TestSmoke runs all five workloads plain and traced at 1/20 scale and
// checks the output contract: no failed operation, exactly the
// end-to-end set (plain) or the per-layer set (traced) on the result
// line, each with its declared unit, and every declared per-layer
// metric actually measured by at least one workload.
func TestSmoke(t *testing.T) {
	measured := map[string]bool{}      // emitted by any run
	plainMeasured := map[string]bool{} // emitted by a plain run
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := smokeConfig(t, w.name, traced)
			res, line := runWorkload(t, cfg)
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d: %v",
					w.name, traced, line.Correct, line.Failed, line.Attempted, res.problems)
			}
			want := 0
			for _, def := range metricDefs {
				if def.EndToEnd == traced {
					continue
				}
				want++
				got, ok := line.Metrics[def.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing from the result line", w.name, traced, def.Name)
				} else if got.Unit != def.Unit || got.Unit == "" {
					t.Errorf("%s trace=%v: metric %s has unit %q, declared %q", w.name, traced, def.Name, got.Unit, def.Unit)
				}
			}
			if len(line.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics on the result line, want %d", w.name, traced, len(line.Metrics), want)
			}
			for name := range res.vals {
				measured[name] = true
				if !traced {
					plainMeasured[name] = true
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no Chrome trace written: %v", w.name, err)
				}
			}
		}
	}
	for _, def := range metricDefs {
		if !measured[def.Name] {
			t.Errorf("metric %s is declared but no workload measures it", def.Name)
		}
		if free := def.EndToEnd || def.Free; plainMeasured[def.Name] != free {
			t.Errorf("metric %s: printed by a plain run = %v, declared free = %v", def.Name, plainMeasured[def.Name], free)
		}
	}
}

// TestGoldenBites proves the golden comparison can fail: a workload
// checked against goldens it just recorded passes, and fails as soon as
// one cell's recorded digest is that of a run with a different seed.
func TestGoldenBites(t *testing.T) {
	cfg := smokeConfig(t, "fig2_light", false)
	cfg.root = t.TempDir() // golden.json is read and written under <root>/benchmark
	cfg.updateGolden = true
	runWorkload(t, cfg)

	cfg.updateGolden = false
	res, line := runWorkload(t, cfg)
	if !line.Correct || res.failed != 0 {
		t.Fatalf("run against its own golden failed: %v", res.problems)
	}

	g, err := loadGolden(cfg.root)
	if err != nil {
		t.Fatal(err)
	}
	pts := sweepSpecs["fig2_light"].points(cfg, 0)
	victim, other := pts[0].Params, pts[0].Params
	other.Seed += 12345
	out, err := sim.Run(other)
	if err != nil {
		t.Fatal(err)
	}
	chk := &checker{res: newResults(cfg), got: map[string]string{}}
	g.Cells["fig2_light"][cellKey(victim)] = chk.cell(other, out.Stats, nil)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(cfg.root), data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, line = runWorkload(t, cfg)
	if line.Correct || res.failed != 1 {
		t.Fatalf("perturbed golden: correct=%v failed=%d, want exactly one failed cell", line.Correct, res.failed)
	}
	if share := float64(line.Failed) / float64(line.Attempted); share <= 0 {
		t.Fatalf("failed_share = %v, want > 0", share)
	}
}

// TestHandDriveMatchesRunner asserts the traced pass measures the same
// program as the plain run: the hand-driven Tick/Step loop yields Stats
// bit-identical to sim.Runner.Run for cells of every offline workload,
// both on a fresh network and on one reused through Reset.
func TestHandDriveMatchesRunner(t *testing.T) {
	for _, name := range []string{"fig2_light", "fig4_faults", "mesh32_single"} {
		cfg := smokeConfig(t, name, true)
		spec := sweepSpecs[name]
		runner := sim.NewRunner()
		var net *core.Network
		reused := 0
		for _, pt := range spec.sample(spec.points(cfg, 0)) {
			ref, err := runner.Run(pt.Params)
			if err != nil {
				t.Fatalf("%s %s: %v", name, pt.Key, err)
			}
			var timing cellTiming
			timing, net, err = handDrive(pt.Params, net, nil)
			if err := sameDigest(pt.Key, ref.Stats, timing.stats, err); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if timing.reused {
				reused++
			}
		}
		if reused == 0 {
			t.Errorf("%s: no sampled cell exercised the Reset path", name)
		}
		runner.Close()
		net.Close()
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's own tables
// in step, and the committed golden at the settings the driver's
// default run uses.
func TestBenchmarkJSON(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	var declared []metric
	for _, def := range metricDefs {
		if def.EndToEnd {
			declared = append(declared, metric{def.Name, def.Unit, def.Better, def.Bound})
		}
	}
	for _, def := range metricDefs {
		if !def.EndToEnd {
			declared = append(declared, metric{def.Name, def.Unit, def.Better, 0})
		}
	}
	listed := append(append([]metric(nil), doc.EndToEnd...), doc.PerLayer...)
	if len(listed) != len(declared) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the program declares %d", len(listed), len(declared))
	}
	for i := range declared {
		if listed[i] != declared[i] {
			t.Errorf("metric %d: BENCHMARK.json has %+v, the program %+v", i, listed[i], declared[i])
		}
	}
	g, err := loadGolden(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := (goldenSettings{Seed: 1, Scale: 1, Seconds: doc.RunSeconds}); g.RecordedAt != want {
		t.Errorf("golden.json recorded at %+v, want %+v", g.RecordedAt, want)
	}
	for _, name := range []string{"fig2_light", "fig4_faults", "mesh32_single", "serve_cold"} {
		if len(g.Cells[name]) == 0 {
			t.Errorf("golden.json has no cells for %s", name)
		}
	}
}
