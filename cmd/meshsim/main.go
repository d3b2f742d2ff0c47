// Command meshsim runs a single wormhole-mesh simulation and prints
// the measured statistics.
//
// Usage:
//
//	meshsim -alg Duato-Nbc -rate 0.002 -faults 5 -cycles 30000
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"wormmesh"
	"wormmesh/internal/core"
	"wormmesh/internal/metrics"
	"wormmesh/internal/prof"
	"wormmesh/internal/report"
	"wormmesh/internal/serve"
	"wormmesh/internal/sweep"
	"wormmesh/internal/trace"
)

func main() {
	p := wormmesh.DefaultParams()
	var total int64
	var list, heat, traceFlits, latBreakdown, predict, live bool
	var windows int64
	var traceFile, postmortemFile, metricsAddr, manifestFile, linkmapFile, chromeFile string
	var reps, flightrecEvents int
	var cpuProfile, memProfile, cacheDir string
	flag.StringVar(&p.Algorithm, "alg", p.Algorithm, "routing algorithm (see -list)")
	flag.StringVar(&p.Topology, "topology", "mesh", "network topology: mesh|torus")
	flag.IntVar(&p.Width, "width", p.Width, "mesh width")
	flag.IntVar(&p.Height, "height", p.Height, "mesh height")
	flag.Float64Var(&p.Rate, "rate", p.Rate, "traffic rate (messages/node/cycle)")
	flag.IntVar(&p.MessageLength, "len", p.MessageLength, "message length in flits")
	flag.IntVar(&p.Faults, "faults", p.Faults, "number of random node faults")
	flag.Int64Var(&p.Seed, "seed", p.Seed, "traffic/arbitration seed")
	flag.Int64Var(&p.FaultSeed, "fault-seed", p.FaultSeed, "fault pattern seed")
	flag.IntVar(&p.Config.NumVCs, "vcs", p.Config.NumVCs, "virtual channels per physical channel")
	flag.IntVar(&p.Config.BufDepth, "buf", p.Config.BufDepth, "VC buffer depth in flits")
	flag.StringVar(&p.Pattern, "pattern", p.Pattern, "traffic pattern: uniform|transpose|bit-complement|bit-reverse|tornado|hotspot")
	flag.Int64Var(&p.WarmupCycles, "warmup", p.WarmupCycles, "warm-up cycles (not measured)")
	flag.Int64Var(&total, "cycles", p.WarmupCycles+p.MeasureCycles, "total cycles including warm-up")
	flag.BoolVar(&list, "list", false, "list algorithms and exit")
	flag.BoolVar(&predict, "predict", false, "print the analytic surrogate's latency/saturation predictions for this configuration instead of simulating")
	flag.BoolVar(&heat, "heatmap", false, "print the per-node traffic load heatmap")
	flag.StringVar(&linkmapFile, "linkmap", "", "enable per-link telemetry, write the per-link counter CSV to this file and print directional congestion maps (single run only)")
	flag.BoolVar(&latBreakdown, "latbreakdown", false, "print the latency-anatomy table (per-component means, shares, percentiles; single run only)")
	flag.Int64Var(&windows, "windows", 0, "collect time-series windows of this many cycles")
	flag.BoolVar(&live, "live", false, "render a live terminal dashboard while the run executes (sparklines + link congestion; single run only)")
	flag.StringVar(&p.WarmupMode, "warmup-mode", "", "warm-up truncation: fixed (default) or mser (detect steady state, cap at -warmup)")
	flag.Float64Var(&p.StopRelPrecision, "stop-rel", 0, "stop measuring once the 95% CI half-width on latency is within this fraction of the mean (0 = run all cycles)")
	flag.Int64Var(&p.SteadyWindow, "steady-window", 0, "batch width in cycles for -warmup-mode mser and -stop-rel (0 = 500)")
	flag.StringVar(&traceFile, "trace", "", "write the event stream as JSON lines to this file, streamed through the flight-recorder ring (with -reps > 1, only the first replication is traced)")
	flag.BoolVar(&traceFlits, "trace-flits", false, "include per-flit hops in the trace")
	flag.StringVar(&postmortemFile, "postmortem", "", "write a deadlock post-mortem (wait-for graph, blocked chains, recent events) to this file at each global watchdog firing (with -reps > 1, first replication only)")
	flag.IntVar(&flightrecEvents, "flightrec", 0, "capacity in events of the flight-recorder ring behind -trace, -postmortem and -chrometrace (0 = 4096); on its own it records nothing")
	flag.StringVar(&chromeFile, "chrometrace", "", "write the run's engine events as Chrome trace-event JSON to this file (load in Perfetto or chrome://tracing; ring capacity from -flightrec; single run only)")
	flag.StringVar(&metricsAddr, "metrics-addr", "", "serve live Prometheus metrics on this address (e.g. :9090; endpoints /metrics and /debug/vars)")
	flag.StringVar(&manifestFile, "manifest", "", "write a JSON run manifest (params, seeds, wall time, result digest) to this file")
	flag.IntVar(&reps, "reps", 1, "replications over fault sets/seeds, reported as mean ± 95% CI")
	flag.StringVar(&cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&memProfile, "memprofile", "", "write a heap profile to this file on exit")
	flag.StringVar(&cacheDir, "cache", "", "content-addressed result cache directory (shared with meshserve); repeated configurations answer without simulating")
	flag.Parse()

	stopProf, err := prof.Start(cpuProfile, memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "meshsim:", err)
		os.Exit(1)
	}
	defer stopProf()

	if list {
		for _, name := range wormmesh.Algorithms() {
			fmt.Printf("  %-18s %s\n", name, wormmesh.DescribeAlgorithm(name))
		}
		return
	}
	p.MeasureCycles = total - p.WarmupCycles
	if p.MeasureCycles <= 0 {
		fmt.Fprintln(os.Stderr, "meshsim: -cycles must exceed -warmup")
		os.Exit(2)
	}
	// Reject unusable topology/algorithm combinations before any run
	// setup: not every fortification is deadlock-free over wrap links
	// (the rejection message explains why).
	topo, err := wormmesh.NewTopology(p.Topology, p.Width, p.Height)
	if err != nil {
		fmt.Fprintln(os.Stderr, "meshsim:", err)
		os.Exit(2)
	}
	if err := wormmesh.SupportsTopology(p.Algorithm, topo); err != nil {
		fmt.Fprintln(os.Stderr, "meshsim:", err)
		os.Exit(2)
	}
	// -predict answers from the analytic surrogate without running the
	// engine. Configurations the surrogate does not model (torus, or
	// faults under an algorithm outside the BC fortification) are a
	// usage error, not a silent fallback to simulation.
	if predict {
		if err := printPrediction(p); err != nil {
			fmt.Fprintln(os.Stderr, "meshsim:", err)
			os.Exit(2)
		}
		return
	}
	// Per-run telemetry reports describe ONE run; replications aggregate
	// many. Reject the combination up front (like -trace documents its
	// first-replication-only behavior, but these flags would silently
	// report an arbitrary replication).
	if reps > 1 && (linkmapFile != "" || latBreakdown || chromeFile != "" || live) {
		fmt.Fprintln(os.Stderr, "meshsim: -linkmap, -latbreakdown, -chrometrace and -live report a single run; drop them or use -reps 1")
		os.Exit(2)
	}
	if linkmapFile != "" {
		p.Config.ChannelTelemetry = true
	}
	// One window sampler feeds the -windows table, the -chrometrace
	// counter tracks, the -live dashboard and the -metrics-addr series.
	// The latter three default its width (the stdout table stays tied to
	// an explicit -windows). Replications run concurrently and print no
	// series, so only -metrics-addr attaches one, to the first of them.
	windowsAsked := windows > 0
	if windows == 0 && (chromeFile != "" || live || metricsAddr != "") {
		windows = core.DefaultWindowCycles
	}
	if windows > 0 && (reps <= 1 || metricsAddr != "") {
		p.Sampler = core.NewWindowSampler(windows, int(total/windows)+2)
	}
	// One flight-recorder ring is the run's event sink: it streams
	// -trace and holds the tail -postmortem and -chrometrace read.
	var rec *core.FlightRecorder
	if traceFile != "" || postmortemFile != "" || chromeFile != "" {
		rec = core.NewFlightRecorder(flightrecEvents)
		p.FlightRecorder = rec
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "meshsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		rec.Stream(f, traceFlits)
	}
	if postmortemFile != "" {
		f, err := os.Create(postmortemFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "meshsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		p.PostmortemWriter = f
	}

	var sweepMetrics *metrics.Sweep
	stopMetrics := func() {}
	if metricsAddr != "" {
		reg := metrics.NewRegistry()
		stopMetrics = metrics.NewSim(reg).Follow(p.Sampler)
		sweepMetrics = metrics.NewSweep(reg)
		reg.PublishExpvar()
		_, addr, err := metrics.Serve(metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "meshsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "meshsim: serving live metrics on http://%s/metrics\n", addr)
	}

	var manifest *metrics.Manifest
	if manifestFile != "" {
		manifest = metrics.NewManifest("meshsim", p)
		manifest.Seeds = []int64{p.Seed}
	}

	// -cache shares meshserve's content-addressed store. Runs that need
	// artifacts a cached Stats cannot reproduce (traces, post-mortems,
	// link/window telemetry, the fault-model heatmap) skip the lookup
	// but still file their result for future plain runs.
	var cache *serve.SweepCache
	if cacheDir != "" {
		c, err := serve.OpenDiskCache(cacheDir, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "meshsim:", err)
			os.Exit(1)
		}
		cache = serve.NewSweepCache(c)
	}

	if reps > 1 {
		runReplications(p, reps, sweepMetrics, manifest, manifestFile, cache)
		stopMetrics()
		return
	}

	var res wormmesh.Result
	cached := false
	if cache != nil && !heat {
		res, cached = cache.Lookup(p)
	}
	if !cached {
		if live {
			res, err = runLive(p, os.Stderr)
		} else {
			res, err = wormmesh.Run(p)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "meshsim:", err)
			os.Exit(1)
		}
		if cache != nil {
			cache.Store(p, res)
		}
	}
	stopMetrics()
	st := res.Stats
	if manifest != nil {
		manifest.EffectiveWarmupCycles = st.EffectiveWarmup
		manifest.LatencyCIHalfWidth = st.LatencyCIHalf
	}
	writeManifest(manifest, manifestFile, st)
	if chromeFile != "" {
		if err := writeChromeTrace(chromeFile, p, res, rec); err != nil {
			fmt.Fprintln(os.Stderr, "meshsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "meshsim: wrote %s (%d engine events; open in ui.perfetto.dev)\n",
			chromeFile, rec.Len())
	}

	fmt.Printf("%v, %s, %s traffic, rate %g msg/node/cycle, %d-flit messages, %d VCs\n",
		topo, p.Algorithm, p.Pattern, p.Rate, p.MessageLength, p.Config.NumVCs)
	if res.FaultCount > 0 {
		fmt.Printf("faults: %d seed (+%d deactivated) in %d block regions, %d f-ring nodes\n",
			res.SeedFaults, res.FaultCount-res.SeedFaults, res.Regions, res.RingNodes)
	}
	if cached {
		fmt.Printf("measured %d cycles after %d warm-up (cached result, no simulation)\n",
			p.MeasureCycles, p.WarmupCycles)
	} else {
		fmt.Printf("measured %d cycles after %d warm-up (%.2fs wall)\n",
			p.MeasureCycles, p.WarmupCycles, res.Elapsed.Seconds())
	}
	// Under adaptive warm-up or the stopping rule the planned cycle
	// counts above are ceilings; report what actually happened.
	if p.WarmupMode == "mser" || p.StopRelPrecision > 0 {
		fmt.Printf("steady-state: effective warm-up %d cycles, measured %d cycles",
			st.EffectiveWarmup, st.Cycles)
		if st.LatencyCIHalf > 0 {
			fmt.Printf(", latency 95%% CI half-width %.2f cycles", st.LatencyCIHalf)
		}
		fmt.Println()
	}
	fmt.Println()

	t := report.NewTable("metric", "value")
	t.AddRow("generated messages", st.Generated)
	t.AddRow("delivered messages", st.Delivered)
	t.AddRow("refused offers", st.Refused)
	t.AddRow("avg latency (cycles)", st.AvgLatency())
	t.AddRow("latency std dev", st.LatencyStdDev())
	t.AddRow("max latency", st.LatencyMax)
	t.AddRow("avg network latency", st.AvgNetLatency())
	t.AddRow("throughput (flits/node/cycle)", st.Throughput())
	t.AddRow("normalized throughput", res.NormalizedThroughput())
	t.AddRow("avg hops", st.AvgHops())
	t.AddRow("avg detour hops", st.AvgDetour())
	t.AddRow("killed (recovery)", st.Killed)
	if st.Killed > 0 {
		t.AddRow("  killed global/stall/livelock",
			fmt.Sprintf("%d/%d/%d", st.KilledGlobal, st.KilledStall, st.KilledLivelock))
	}
	t.AddRow("deadlock events", st.DeadlockEvents)
	if err := t.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "meshsim:", err)
		os.Exit(1)
	}

	fmt.Println()
	util := st.VCUtilization()
	var b strings.Builder
	b.WriteString("per-VC utilization:")
	for v, u := range util {
		if v%8 == 0 {
			b.WriteString("\n  ")
		}
		fmt.Fprintf(&b, "vc%-2d %.3f  ", v, u)
	}
	fmt.Println(b.String())

	if windowsAsked {
		fmt.Println("\ntime series (per window):")
		for _, w := range p.Sampler.Since(0) {
			fmt.Printf("  [%d,%d) gen=%d del=%d lat=%.0f backlog=%d thr=%.4f",
				w.Start, w.End, w.Generated, w.Delivered, w.AvgLatency, w.InFlight, w.Throughput(st.HealthyNodes))
			if w.End <= st.EffectiveWarmup {
				fmt.Print(" warm-up")
			}
			fmt.Println()
		}
	}
	if latBreakdown {
		fmt.Println("\nlatency anatomy (generation to tail delivery):")
		if err := wormmesh.LatencyAnatomy(st).Write(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "meshsim:", err)
			os.Exit(1)
		}
	}
	if linkmapFile != "" {
		lt, err := res.LinkTable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "meshsim:", err)
			os.Exit(1)
		}
		f, err := os.Create(linkmapFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "meshsim:", err)
			os.Exit(1)
		}
		if err := lt.WriteCSV(f); err == nil {
			err = f.Close()
			if err != nil {
				fmt.Fprintln(os.Stderr, "meshsim:", err)
				os.Exit(1)
			}
		} else {
			f.Close()
			fmt.Fprintln(os.Stderr, "meshsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "meshsim: wrote %s\n", linkmapFile)
		for _, metric := range []wormmesh.LinkMetric{wormmesh.LinkFlits, wormmesh.LinkBlocked} {
			lv, err := res.LinkView(metric)
			if err != nil {
				fmt.Fprintln(os.Stderr, "meshsim:", err)
				os.Exit(1)
			}
			fmt.Println()
			if err := lv.Write(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "meshsim:", err)
				os.Exit(1)
			}
		}
	}
	if heat {
		values := make([]float64, len(st.NodeCrossings))
		for id, c := range st.NodeCrossings {
			if res.Faults.IsFaulty(wormmesh.NodeID(id)) {
				values[id] = math.NaN()
			} else {
				values[id] = float64(c) / float64(st.Cycles)
			}
		}
		wraps := topo.Kind() == "torus"
		hm := report.Heatmap{
			Title:  "\nper-node traffic load (crossbar flits/cycle):",
			Width:  p.Width,
			Height: p.Height,
			Values: values,
			WrapX:  wraps,
			WrapY:  wraps,
			Legend: true,
		}
		if err := hm.Write(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "meshsim:", err)
			os.Exit(1)
		}
	}
}

// runReplications runs the configuration over several fault sets and
// seeds in parallel and reports mean and 95% confidence intervals.
// Per-run observers stay on the FIRST replication only: the points run
// concurrently on a worker pool, so sharing one flight-recorder ring,
// post-mortem writer or window sampler across replications
// would interleave their streams (the -trace flag documents this).
func runReplications(p wormmesh.Params, reps int, sm *metrics.Sweep, manifest *metrics.Manifest, manifestFile string, cache *serve.SweepCache) {
	points := sweep.FaultReplicas("rep", p, reps)
	if manifest != nil {
		manifest.Seeds = nil
		for _, pt := range points {
			manifest.Seeds = append(manifest.Seeds, pt.Params.Seed)
		}
	}
	for i := 1; i < len(points); i++ {
		points[i].Params.FlightRecorder = nil
		points[i].Params.PostmortemWriter = nil
		points[i].Params.Sampler = nil
	}
	var progress func(done, total int)
	if sm != nil {
		sm.Start(len(points))
		defer sm.Finish()
		progress = sm.Progress
	}
	var cacheArg sweep.Cache
	if cache != nil {
		cacheArg = cache
	}
	outcomes := sweep.RunCached(points, 0, progress, cacheArg)
	if err := sweep.FirstError(outcomes); err != nil {
		fmt.Fprintln(os.Stderr, "meshsim:", err)
		os.Exit(1)
	}
	cells := sweep.Aggregate(outcomes)
	c := cells[0]
	writeManifest(manifest, manifestFile, cells)
	if cache != nil {
		hits, _, misses := cache.Stats()
		fmt.Fprintf(os.Stderr, "meshsim: cache: %d hits, %d misses\n", hits, misses)
	}
	fmt.Printf("%d replications of %s (rate %g, %d faults):\n", c.N, p.Algorithm, p.Rate, p.Faults)
	t := report.NewTable("metric", "mean", "ci95", "std")
	t.AddRow("latency (cycles)", c.Latency.Mean(), c.Latency.CI95(), c.Latency.Std())
	t.AddRow("throughput (flits/node/cycle)", c.Throughput.Mean(), c.Throughput.CI95(), c.Throughput.Std())
	t.AddRow("normalized throughput", c.Normalized.Mean(), c.Normalized.CI95(), c.Normalized.Std())
	t.AddRow("detour hops", c.Detour.Mean(), c.Detour.CI95(), c.Detour.Std())
	t.AddRow("killed fraction", c.KilledFraction.Mean(), c.KilledFraction.CI95(), c.KilledFraction.Std())
	if err := t.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "meshsim:", err)
		os.Exit(1)
	}
}

// writeChromeTrace renders the run's flight-recorder history and window
// series as Chrome trace-event JSON: one service-side span for the
// whole run (wall clock) carrying every engine event and window on the
// cycle timeline, exactly the file GET /traces/{id}.json serves for a
// meshserve job.
func writeChromeTrace(path string, p wormmesh.Params, res wormmesh.Result, rec *core.FlightRecorder) error {
	end := time.Now()
	tr := trace.New(16)
	root := tr.StartAt(fmt.Sprintf("meshsim %s rate %g", p.Algorithm, p.Rate),
		trace.Context{}, end.Add(-res.Elapsed))
	root.Set("algorithm", p.Algorithm)
	root.Set("rate", p.Rate)
	root.Set("cycles", p.WarmupCycles+p.MeasureCycles)
	root.AttachEngine(rec.Snapshot())
	// The window series becomes Perfetto counter tracks above the
	// per-message slices, on the same cycle timeline.
	root.AttachWindows(serve.WindowPoints(p.Sampler))
	root.EndAt(end)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, tr.Collect(root.TraceID())); err != nil {
		f.Close()
		return fmt.Errorf("chrometrace: %w", err)
	}
	return f.Close()
}

// writeManifest finalizes and writes the run manifest when -manifest
// was given: the results payload is digested (FNV-1a over its JSON
// encoding) so two runs can be compared for bit-identity at a glance.
func writeManifest(m *metrics.Manifest, path string, results any) {
	if m == nil {
		return
	}
	if err := m.Finish(results); err == nil {
		err = m.WriteFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "meshsim: manifest:", err)
			os.Exit(1)
		}
	} else {
		fmt.Fprintln(os.Stderr, "meshsim: manifest:", err)
		os.Exit(1)
	}
}

// printPrediction answers the configured cell from the analytic
// surrogate: the predicted saturation knee and the latency anatomy
// across the stable region, with the -rate operating point marked. No
// simulation runs; predictions carry the uncalibrated γ=1 contention
// gain (calibrate against one measured run for tighter numbers).
func printPrediction(p wormmesh.Params) error {
	mo, err := sweep.Surrogate(p)
	if err != nil {
		return err
	}
	knee := mo.SaturationRate()
	kind := "fault-free"
	if mo.Faulted() {
		kind = fmt.Sprintf("%d random faults (fortified route loads)", p.Faults)
	}
	fmt.Printf("analytic surrogate: %dx%d mesh, %s, %d-flit messages, %d VCs, %s\n",
		p.Width, p.Height, p.Algorithm, p.MessageLength, p.Config.NumVCs, kind)
	fmt.Printf("predicted saturation: %.5f messages/node/cycle\n\n", knee)
	t := report.NewTable("rate", "latency_cycles", "blocking_prob", "stretch", "source_wait")
	rates := []float64{0.25 * knee, 0.5 * knee, 0.75 * knee, 0.9 * knee}
	if p.Rate > 0 && p.Rate < knee {
		rates = append(rates, p.Rate)
		sort.Float64s(rates)
	}
	for _, r := range rates {
		mark := ""
		if r == p.Rate {
			mark = " <- -rate"
		}
		pred, err := mo.Predict(r)
		if err != nil {
			t.AddRow(fmt.Sprintf("%.5f%s", r, mark), "saturated", "-", "-", "-")
			continue
		}
		t.AddRow(fmt.Sprintf("%.5f%s", r, mark), pred.Latency, pred.BlockingProb, pred.MeanStretch, pred.SourceWait)
	}
	if p.Rate >= knee {
		fmt.Printf("note: -rate %g is at or beyond the predicted saturation point\n", p.Rate)
	}
	return t.Write(os.Stdout)
}
