// Command experiments regenerates the paper's figures and the
// repository's extension studies.
//
// Usage:
//
//	experiments [flags] fig1|fig2|fig3|fig4|fig5|fig6|all
//	experiments -hybrid [flags] fig1|fig2  # analytic-guided: simulate the knee bracket, model-fill the rest
//	experiments [flags] ablate        # VC count / buffer depth / selection policy
//	experiments [flags] model         # analytic model vs. simulator
//	experiments [flags] saturation    # per-algorithm saturation points
//	experiments [flags] adaptivity    # routing freedom per decision
//	experiments [flags] scale         # larger meshes (16x16, 20x20)
//	experiments [flags] hotspot       # on-ring vs off-ring blocked-cycle maps
//	experiments [flags] warmup        # fixed vs MSER-detected warm-up truncation
//	experiments [flags] topology      # mesh vs torus backends, torus-enabled roster
//
// Each target prints an ASCII chart plus the underlying data table;
// -csv DIR additionally writes the table as CSV.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"

	"wormmesh"

	"wormmesh/internal/experiments"
	"wormmesh/internal/metrics"
	"wormmesh/internal/prof"
	"wormmesh/internal/report"
	"wormmesh/internal/serve"
	"wormmesh/internal/sweep"
)

func main() {
	opt := experiments.Paper()
	var quick bool
	var csvDir string
	var algs string
	var cpuProfile, memProfile string
	var metricsAddr, cacheDir string
	var hybrid bool
	var hybridRadius float64
	var hybridFaults int
	flag.BoolVar(&quick, "quick", false, "reduced cycle counts (CI scale)")
	flag.BoolVar(&hybrid, "hybrid", false, "analytic-guided fig1/fig2 sweep: simulate only the saturation-knee bracket, model-fill the rest (per-cell provenance in the table)")
	flag.Float64Var(&hybridRadius, "hybrid-radius", 0, "hybrid bracket radius around the predicted knee (<=1 uses the default 1.3)")
	flag.IntVar(&hybridFaults, "hybrid-faults", 0, "random node faults for the hybrid sweep's curves (0 = the paper's fault-free figs 1-2)")
	flag.StringVar(&opt.Topology, "topology", "mesh", "network topology: mesh|torus (re-bases every study)")
	flag.IntVar(&opt.FaultSets, "sets", opt.FaultSets, "fault sets per case")
	flag.Int64Var(&opt.WarmupCycles, "warmup", opt.WarmupCycles, "warm-up cycles")
	flag.Int64Var(&opt.MeasureCycles, "cycles", opt.MeasureCycles, "measured cycles")
	flag.IntVar(&opt.Workers, "workers", 0, "parallel workers (0 = NumCPU)")
	flag.Int64Var(&opt.Seed, "seed", opt.Seed, "base seed")
	flag.StringVar(&csvDir, "csv", "", "directory for CSV output")
	flag.StringVar(&algs, "algs", "", "comma-separated algorithm subset")
	flag.StringVar(&cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&memProfile, "memprofile", "", "write a heap profile to this file on exit")
	flag.StringVar(&metricsAddr, "metrics-addr", "", "serve live sweep-progress metrics (Prometheus text) on this address, e.g. :9090")
	flag.StringVar(&cacheDir, "cache", "", "content-addressed result cache directory (shared with meshserve); repeated cells answer without simulating")
	flag.Parse()
	stopProf, err := prof.Start(cpuProfile, memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()
	if quick {
		q := experiments.Quick()
		opt.WarmupCycles, opt.MeasureCycles, opt.FaultSets = q.WarmupCycles, q.MeasureCycles, q.FaultSets
	}
	opt.Progress = os.Stderr

	if metricsAddr != "" {
		reg := metrics.NewRegistry()
		opt.SweepMetrics = metrics.NewSweep(reg)
		reg.PublishExpvar()
		_, addr, err := metrics.Serve(metricsAddr, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "experiments: serving live metrics on http://%s/metrics\n", addr)
	}

	var resultCache *serve.SweepCache
	if cacheDir != "" {
		c, err := serve.OpenDiskCache(cacheDir, 0)
		if err != nil {
			fatal(err)
		}
		resultCache = serve.NewSweepCache(c)
		opt.Cache = resultCache
		defer func() {
			hits, diskHits, misses := resultCache.Stats()
			fmt.Fprintf(os.Stderr, "experiments: cache: %d hits (%d from disk), %d misses, %d bypassed (observed)\n", hits, diskHits, misses, resultCache.Bypassed())
		}()
	}

	// With -csv, a manifest.json lands next to the tables: parameters,
	// command line, wall time, and a digest per CSV so two regenerations
	// can be compared for bit-identity without diffing the files.
	var manifest *metrics.Manifest
	csvDigests := map[string]string{}

	// Reject unusable topology/algorithm combinations up front: torus
	// runs are limited to the fortifications that stay deadlock-free
	// over wrap links.
	topo, err := wormmesh.NewTopology(opt.Topology, opt.Width, opt.Height)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	var algorithms []string
	if algs != "" {
		algorithms = strings.Split(algs, ",")
		listed := map[string]bool{}
		for _, a := range algorithms {
			if err := wormmesh.SupportsTopology(a, topo); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(2)
			}
			// A study's cells are keyed by algorithm: a repeat would
			// merge two cells into one.
			if listed[a] {
				fmt.Fprintf(os.Stderr, "experiments: algorithm %q listed twice in -algs\n", a)
				os.Exit(2)
			}
			listed[a] = true
		}
	} else if topo.Kind() == "torus" {
		// Figure defaults include mesh-only algorithms; on the torus the
		// implicit roster is the torus-enabled subset.
		for _, a := range wormmesh.Algorithms() {
			if wormmesh.SupportsTopology(a, topo) == nil {
				algorithms = append(algorithms, a)
			}
		}
	}

	targets := flag.Args()
	if len(targets) == 0 {
		targets = []string{"all"}
	}
	want := map[string]bool{}
	for _, t := range targets {
		if t == "all" {
			for _, f := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6"} {
				want[f] = true
			}
			continue
		}
		want[t] = true
	}

	// Hybrid mode drives the fig1/fig2 traffic sweep only, and only
	// over cells the analytic surrogate models; reject anything else
	// up front rather than silently falling back to full simulation.
	if hybrid {
		for tgt := range want {
			if tgt != "fig1" && tgt != "fig2" {
				fmt.Fprintf(os.Stderr, "experiments: -hybrid applies to fig1/fig2 only, not %q\n", tgt)
				os.Exit(2)
			}
		}
		roster := algorithms
		if roster == nil {
			roster = wormmesh.Algorithms()
		}
		for _, alg := range roster {
			probe := wormmesh.DefaultParams()
			probe.Topology = opt.Topology
			probe.Algorithm = alg
			probe.Faults = hybridFaults
			if err := sweep.HybridSupported(probe); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(2)
			}
		}
	}

	if csvDir != "" {
		manifest = metrics.NewManifest("experiments", opt)
		manifest.Seeds = []int64{opt.Seed}
	}

	saveCSV := func(name string, t *report.Table) {
		if csvDir == "" {
			return
		}
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fatal(err)
		}
		f, err := os.Create(filepath.Join(csvDir, name+".csv"))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		h := fnv.New64a()
		if err := t.WriteCSV(io.MultiWriter(f, h)); err != nil {
			fatal(err)
		}
		csvDigests[name] = fmt.Sprintf("fnv1a:%016x", h.Sum64())
		fmt.Fprintf(os.Stderr, "wrote %s\n", filepath.Join(csvDir, name+".csv"))
	}

	for _, tg := range studies(opt, algorithms, want, hybrid, hybridFaults, hybridRadius) {
		selected := false
		for _, name := range tg.on {
			selected = selected || want[name]
		}
		if !selected {
			continue
		}
		t, err := tg.run()
		if err != nil {
			fatal(err)
		}
		if tg.show != nil {
			head, charts := tg.show(t)
			if head != "" {
				fmt.Println(head)
			}
			for _, c := range charts {
				must(c.Write(os.Stdout))
				fmt.Println()
			}
		}
		must(t.Write(os.Stdout))
		saveCSV(tg.name, t)
		if manifest != nil && tg.notes != nil {
			if manifest.Notes == nil {
				manifest.Notes = map[string]any{}
			}
			for k, v := range tg.notes(t) {
				manifest.Notes[k] = v
			}
		}
		fmt.Println()
	}

	if manifest != nil {
		must(manifest.Finish(csvDigests))
		path := filepath.Join(csvDir, "manifest.json")
		must(manifest.WriteFile(path))
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

// A target is one study as the command runs it: the command-line names
// that select it, the CSV file stem its table is saved under, the run
// that produces the table, and what prints above the table and goes
// into manifest.json's notes.
type target struct {
	name string
	on   []string
	run  func() (*report.Table, error)
	// show returns the heading line (empty for none) and the charts
	// printed above the table, each followed by a blank line.
	show  func(t *report.Table) (string, []chart)
	notes func(t *report.Table) map[string]any
}

type chart interface{ Write(io.Writer) error }

// chartFunc adapts a print function to a chart.
type chartFunc func(w io.Writer) error

func (f chartFunc) Write(w io.Writer) error { return f(w) }

func heading(format string, args ...any) func(*report.Table) (string, []chart) {
	return func(*report.Table) (string, []chart) { return fmt.Sprintf(format, args...), nil }
}

// studies lists every target in output order. Figures 1/2 and 4/5 are
// one target each: both figures of a pair come from one run.
func studies(opt experiments.Options, algorithms []string, want map[string]bool, hybrid bool, hybridFaults int, hybridRadius float64) []target {
	alg := "Duato-Nbc" // the single-algorithm studies' default
	if len(algorithms) > 0 {
		alg = algorithms[0]
	}
	figs12 := func(t *report.Table) []chart {
		var charts []chart
		if want["fig1"] {
			charts = append(charts, t.LineChart("Figure 1: normalized accepted throughput vs. traffic generation rate (fault-free)",
				"messages/node/cycle", "algorithm", "rate", "normalized_thr"))
		}
		if want["fig2"] {
			charts = append(charts, t.LineChart("Figure 2: average message latency vs. traffic generation rate (fault-free)",
				"messages/node/cycle", "algorithm", "rate", "latency_cycles"))
		}
		return charts
	}
	traffic := target{name: "fig1_fig2_traffic_sweep", on: []string{"fig1", "fig2"},
		run:  func() (*report.Table, error) { return experiments.TrafficSweep(opt, algorithms, nil) },
		show: func(t *report.Table) (string, []chart) { return "", figs12(t) },
	}
	if hybrid {
		var summary *report.Table
		traffic = target{name: "fig1_fig2_hybrid_sweep", on: traffic.on,
			run: func() (t *report.Table, err error) {
				t, summary, err = experiments.HybridTrafficSweep(opt, algorithms, nil, hybridFaults, hybridRadius)
				return t, err
			},
			show: func(t *report.Table) (string, []chart) {
				return "", append(figs12(t), chartFunc(func(w io.Writer) error {
					fmt.Fprintf(w, "hybrid sweep: %d of %d points simulated, the rest model-filled\n",
						len(t.Floats("rate", "source", sweep.SourceSimulated)), len(t.Rows))
					return summary.Write(w)
				}))
			},
			notes: func(t *report.Table) map[string]any {
				provenance := map[string]string{}
				for _, row := range t.Rows {
					provenance[fmt.Sprintf("%s@%g", row[0], row[1])] = row[5].(string)
				}
				return map[string]any{
					"hybrid_provenance":       provenance,
					"hybrid_simulated_points": len(t.Floats("rate", "source", sweep.SourceSimulated)),
					"hybrid_total_points":     len(t.Rows),
				}
			},
		}
	}
	var gain float64
	ts := []target{
		traffic,
		{name: "fig3_vc_usage", on: []string{"fig3"},
			run: func() (*report.Table, error) { return experiments.VCUsage(opt, algorithms, 5) },
			show: func(t *report.Table) (string, []chart) {
				var charts []chart
				for _, a := range t.Header[1:] {
					b := &report.BarChart{Title: fmt.Sprintf("Figure 3: per-VC utilization — %s", a)}
					for v, u := range t.Floats(a) {
						b.Add(fmt.Sprintf("VC%d", v), u)
					}
					charts = append(charts, b)
				}
				return "", charts
			},
		},
		{name: "fig4_fig5_fault_sweep", on: []string{"fig4", "fig5"},
			run: func() (*report.Table, error) { return experiments.FaultSweep(opt, algorithms, nil) },
			show: func(t *report.Table) (string, []chart) {
				var charts []chart
				if want["fig4"] {
					charts = append(charts, t.LineChart("Figure 4: normalized throughput vs. percentage of faulty nodes (saturating load)",
						"% faulty nodes", "algorithm", "faults%", "norm_throughput"))
				}
				if want["fig5"] {
					charts = append(charts, t.LineChart("Figure 5: average message latency vs. percentage of faulty nodes (saturating load)",
						"% faulty nodes", "algorithm", "faults%", "latency"))
				}
				return "", charts
			},
		},
		{name: "fig6_ring_load", on: []string{"fig6"},
			run: func() (*report.Table, error) { return experiments.RingLoad(opt, algorithms) },
			show: func(t *report.Table) (string, []chart) {
				// Grouped bars: ring and other share per algorithm and case.
				b := &report.BarChart{Title: "Figure 6: mean node load as % of peak (f-ring nodes vs. others)"}
				for _, row := range t.Rows {
					b.Add(fmt.Sprintf("%s %s ring", row[0], row[1]), row[2].(float64))
					b.Add(fmt.Sprintf("%s %s other", row[0], row[1]), row[3].(float64))
				}
				return "", []chart{b}
			},
		},
		{name: "ablate_vcs", on: []string{"ablate"},
			run:  func() (*report.Table, error) { return opt.AblateVCs(alg, nil) },
			show: heading("ablation: virtual channels (%s)", alg),
		},
		{name: "ablate_bufdepth", on: []string{"ablate"},
			run:  func() (*report.Table, error) { return opt.AblateBufDepth(alg, nil) },
			show: heading("ablation: VC buffer depth (%s)", alg),
		},
		{name: "ablate_selection", on: []string{"ablate"},
			run:  func() (*report.Table, error) { return opt.AblateSelection(alg) },
			show: heading("ablation: selection policy (%s)", alg),
		},
		{name: "ablate_msglength", on: []string{"ablate"},
			run:  func() (*report.Table, error) { return opt.AblateMessageLength(alg, nil) },
			show: heading("ablation: message length at constant flit load (%s)", alg),
		},
		{name: "model_validation", on: []string{"model"},
			run: func() (t *report.Table, err error) {
				t, gain, err = opt.ModelValidation(nil)
				return t, err
			},
			show: func(*report.Table) (string, []chart) {
				return fmt.Sprintf("analytic model vs. simulator (contention gain fitted at the first rate: %.2f)", gain), nil
			},
		},
	}
	// Faulted validation covers meshes only: the surrogate's route
	// loads are mesh fortifications.
	if opt.Topology == "" || opt.Topology == "mesh" {
		ts = append(ts, target{name: "model_validation_faulted", on: []string{"model"},
			run:  opt.FaultedModelValidation,
			show: heading("faulted model vs. simulator (γ fitted at 0.55 of each scenario's predicted knee)"),
		})
	}
	var views []*report.LinkView
	return append(ts,
		target{name: "adaptivity", on: []string{"adaptivity"},
			run:  func() (*report.Table, error) { return experiments.Adaptivity(opt, algorithms, 5, 400) },
			show: heading("routing freedom per decision (5%% faults)"),
		},
		target{name: "scale", on: []string{"scale"},
			run:  func() (*report.Table, error) { return experiments.Scale(opt, algorithms, nil) },
			show: heading("scaling study (5%% faults, 0.1 flits/node/cycle offered)"),
		},
		target{name: "hotspot", on: []string{"hotspot"},
			run: func() (t *report.Table, err error) {
				t, views, err = experiments.Hotspot(opt, algorithms, nil)
				return t, err
			},
			show: func(*report.Table) (string, []chart) {
				charts := make([]chart, len(views))
				for i, lv := range views {
					charts[i] = lv
				}
				return "hotspot study: blocked cycles on f-ring links vs. the rest (saturating load)", charts
			},
		},
		target{name: "warmup", on: []string{"warmup"},
			run:  func() (*report.Table, error) { return experiments.Warmup(opt, alg, 5, nil) },
			show: heading("warm-up sensitivity: fixed truncation ladder vs MSER detection (%s, %d faults)", alg, 5),
			notes: func(t *report.Table) map[string]any {
				detected := map[string]any{}
				for _, row := range t.Rows {
					if row[1] == "mser" {
						detected[fmt.Sprintf("rate_%g", row[0])] = row[3]
					}
				}
				return map[string]any{"warmup_detected_truncation": detected}
			},
		},
		target{name: "topology", on: []string{"topology"},
			run:  func() (*report.Table, error) { return experiments.TopologyCompare(opt, algorithms) },
			show: heading("topology study: mesh vs torus, each normalized to its own bisection capacity"),
		},
		target{name: "saturation_points", on: []string{"saturation"},
			run:  func() (*report.Table, error) { return opt.SaturationPoints(algorithms) },
			show: heading("measured saturation points (fault-free)"),
		},
	)
}
