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
			fmt.Fprintf(os.Stderr, "experiments: cache: %d hits (%d from disk), %d misses\n", hits, diskHits, misses)
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
		for _, a := range algorithms {
			if err := wormmesh.SupportsTopology(a, topo); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(2)
			}
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

	if (want["fig1"] || want["fig2"]) && hybrid {
		res, err := experiments.HybridTrafficSweep(opt, algorithms, nil, hybridFaults, hybridRadius)
		if err != nil {
			fatal(err)
		}
		if want["fig1"] {
			must(res.ThroughputChart().Write(os.Stdout))
			fmt.Println()
		}
		if want["fig2"] {
			must(res.LatencyChart().Write(os.Stdout))
			fmt.Println()
		}
		fmt.Printf("hybrid sweep: %d of %d points simulated, the rest model-filled\n",
			res.SimulatedPoints, res.TotalPoints)
		must(res.SummaryTable().Write(os.Stdout))
		fmt.Println()
		must(res.Table().Write(os.Stdout))
		saveCSV("fig1_fig2_hybrid_sweep", res.Table())
		if manifest != nil {
			manifest.Notes = map[string]any{
				"hybrid_provenance":       res.Provenance(),
				"hybrid_simulated_points": res.SimulatedPoints,
				"hybrid_total_points":     res.TotalPoints,
			}
		}
		fmt.Println()
	} else if want["fig1"] || want["fig2"] {
		res, err := experiments.TrafficSweep(opt, algorithms, nil)
		if err != nil {
			fatal(err)
		}
		if want["fig1"] {
			must(res.ThroughputChart().Write(os.Stdout))
			fmt.Println()
		}
		if want["fig2"] {
			must(res.LatencyChart().Write(os.Stdout))
			fmt.Println()
		}
		must(res.Table().Write(os.Stdout))
		saveCSV("fig1_fig2_traffic_sweep", res.Table())
		fmt.Println()
	}
	if want["fig3"] {
		res, err := experiments.VCUsage(opt, algorithms, 5)
		if err != nil {
			fatal(err)
		}
		for _, alg := range res.Algorithms {
			must(res.Chart(alg).Write(os.Stdout))
			fmt.Println()
		}
		must(res.Table().Write(os.Stdout))
		saveCSV("fig3_vc_usage", res.Table())
		fmt.Println()
	}
	if want["fig4"] || want["fig5"] {
		res, err := experiments.FaultSweep(opt, algorithms, nil)
		if err != nil {
			fatal(err)
		}
		if want["fig4"] {
			must(res.ThroughputChart().Write(os.Stdout))
			fmt.Println()
		}
		if want["fig5"] {
			must(res.LatencyChart().Write(os.Stdout))
			fmt.Println()
		}
		must(res.Table().Write(os.Stdout))
		saveCSV("fig4_fig5_fault_sweep", res.Table())
		fmt.Println()
	}
	if want["fig6"] {
		res, err := experiments.RingLoad(opt, algorithms)
		if err != nil {
			fatal(err)
		}
		must(res.Chart().Write(os.Stdout))
		fmt.Println()
		must(res.Table().Write(os.Stdout))
		saveCSV("fig6_ring_load", res.Table())
		fmt.Println()
	}
	if want["ablate"] {
		alg := "Duato-Nbc"
		if len(algorithms) > 0 {
			alg = algorithms[0]
		}
		vcs, err := opt.AblateVCs(alg, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ablation: virtual channels (%s)\n", alg)
		must(vcs.Table().Write(os.Stdout))
		saveCSV("ablate_vcs", vcs.Table())
		fmt.Println()
		buf, err := opt.AblateBufDepth(alg, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ablation: VC buffer depth (%s)\n", alg)
		must(buf.Table().Write(os.Stdout))
		saveCSV("ablate_bufdepth", buf.Table())
		fmt.Println()
		sel, err := opt.AblateSelection(alg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ablation: selection policy (%s)\n", alg)
		must(sel.Table().Write(os.Stdout))
		saveCSV("ablate_selection", sel.Table())
		fmt.Println()
		msg, err := opt.AblateMessageLength(alg, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ablation: message length at constant flit load (%s)\n", alg)
		must(msg.Table().Write(os.Stdout))
		saveCSV("ablate_msglength", msg.Table())
		fmt.Println()
	}
	if want["model"] {
		res, err := opt.ModelValidation(nil)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("analytic model vs. simulator (contention gain fitted at the first rate: %.2f)\n", res.Gain)
		must(res.Table().Write(os.Stdout))
		saveCSV("model_validation", res.Table())
		fmt.Println()
		// Faulted validation covers meshes only: the surrogate's route
		// loads are mesh fortifications.
		if opt.Topology == "" || opt.Topology == "mesh" {
			fres, err := opt.FaultedModelValidation()
			if err != nil {
				fatal(err)
			}
			fmt.Println("faulted model vs. simulator (γ fitted at 0.55 of each scenario's predicted knee)")
			must(fres.Table().Write(os.Stdout))
			saveCSV("model_validation_faulted", fres.Table())
			fmt.Println()
		}
	}
	if want["adaptivity"] {
		res, err := experiments.Adaptivity(opt, algorithms, 5, 400)
		if err != nil {
			fatal(err)
		}
		fmt.Println("routing freedom per decision (5% faults)")
		must(res.Table().Write(os.Stdout))
		saveCSV("adaptivity", res.Table())
		fmt.Println()
	}
	if want["scale"] {
		res, err := experiments.Scale(opt, algorithms, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println("scaling study (5% faults, 0.1 flits/node/cycle offered)")
		must(res.Table().Write(os.Stdout))
		saveCSV("scale", res.Table())
		fmt.Println()
	}
	if want["hotspot"] {
		res, err := experiments.Hotspot(opt, algorithms, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println("hotspot study: blocked cycles on f-ring links vs. the rest (saturating load)")
		for _, alg := range res.Algorithms {
			if lv := res.Views[alg]; lv != nil {
				must(lv.Write(os.Stdout))
				fmt.Println()
			}
		}
		must(res.Table().Write(os.Stdout))
		saveCSV("hotspot", res.Table())
		fmt.Println()
	}
	if want["warmup"] {
		alg := "Duato-Nbc"
		if len(algorithms) > 0 {
			alg = algorithms[0]
		}
		res, err := experiments.Warmup(opt, alg, 5, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("warm-up sensitivity: fixed truncation ladder vs MSER detection (%s, %d faults)\n", res.Algorithm, res.Faults)
		must(res.Table().Write(os.Stdout))
		saveCSV("warmup", res.Table())
		if manifest != nil {
			detected := map[string]any{}
			for _, row := range res.Rows {
				if row.Variant == "mser" {
					detected[fmt.Sprintf("rate_%g", row.Rate)] = row.Effective
				}
			}
			if manifest.Notes == nil {
				manifest.Notes = map[string]any{}
			}
			manifest.Notes["warmup_detected_truncation"] = detected
		}
		fmt.Println()
	}
	if want["topology"] {
		res, err := experiments.TopologyCompare(opt, algorithms)
		if err != nil {
			fatal(err)
		}
		fmt.Println("topology study: mesh vs torus, each normalized to its own bisection capacity")
		must(res.Table().Write(os.Stdout))
		saveCSV("topology", res.Table())
		fmt.Println()
	}
	if want["saturation"] {
		res, err := opt.SaturationPoints(algorithms)
		if err != nil {
			fatal(err)
		}
		fmt.Println("measured saturation points (fault-free)")
		must(res.Table().Write(os.Stdout))
		saveCSV("saturation_points", res.Table())
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
