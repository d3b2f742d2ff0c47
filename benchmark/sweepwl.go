package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wormmesh/internal/core"
	"wormmesh/internal/metrics"
	"wormmesh/internal/routing"
	"wormmesh/internal/sim"
	"wormmesh/internal/sweep"
	"wormmesh/internal/trace"
	"wormmesh/internal/traffic"
)

// sweepWorkers is fixed at the reference host's core count so the
// numbers mean the same thing on a larger machine.
const sweepWorkers = 2

// sweepSpec describes one offline workload: how each round's cells are
// built, whether they run through sweep.Run or back to back on one
// Runner, and which cells the traced pass re-drives by hand.
type sweepSpec struct {
	rounds  int
	serial  bool
	tailPct float64 // percentile reported as latency_tail_ms (1 = max)
	points  func(cfg config, round int) []sweep.Point
	sample  func(pts []sweep.Point) []sweep.Point
}

var fig2Rates = []float64{0.0001, 0.0005, 0.0009, 0.0013, 0.0017}

var sweepSpecs = map[string]sweepSpec{
	// Figure 2's stable region, fault-free 10x10, all 11 algorithms.
	"fig2_light": {
		rounds: 3, tailPct: 0.90,
		points: func(cfg config, round int) []sweep.Point {
			var pts []sweep.Point
			for _, alg := range routing.AlgorithmNames {
				for _, rate := range fig2Rates {
					p := sim.DefaultParams()
					p.Algorithm, p.Rate = alg, rate
					p.WarmupCycles, p.MeasureCycles = cfg.cycles(3600), cfg.cycles(8400)
					p.Seed = cfg.seed*1000 + int64(round)
					pts = append(pts, sweep.Point{Key: fmt.Sprintf("%s@%g", alg, rate), Params: p})
				}
			}
			return pts
		},
		// Per algorithm, the lightest rate and a middle one: the two
		// regimes whose split between traffic generation and engine
		// work differs most.
		sample: func(pts []sweep.Point) []sweep.Point {
			return append(everyNth(pts, len(fig2Rates), 0), everyNth(pts, len(fig2Rates), 2)...)
		},
	},
	// Figures 4/5: saturating load over 0 % (1 set), 5 % and 10 % (2
	// sets each) of faulty nodes; every algorithm sees the same sets.
	"fig4_faults": {
		rounds: 3, tailPct: 0.90,
		points: func(cfg config, round int) []sweep.Point {
			var pts []sweep.Point
			for _, alg := range routing.AlgorithmNames {
				for _, pct := range []int{0, 5, 10} {
					p := sim.DefaultParams()
					p.Algorithm, p.Rate = alg, 0.01
					p.Faults = p.Width * p.Height * pct / 100
					p.WarmupCycles, p.MeasureCycles = cfg.cycles(1300), cfg.cycles(2700)
					p.FaultSeed = 1 + 7*(cfg.seed*16+int64(round))
					p.Seed = cfg.seed*1000 + 10*int64(round)
					reps := 2
					if pct == 0 {
						reps = 1
					}
					pts = append(pts, sweep.FaultReplicas(fmt.Sprintf("%s@%d%%", alg, pct), p, reps)...)
				}
			}
			return pts
		},
		sample: func(pts []sweep.Point) []sweep.Point { return everyNth(pts, 5, 3) }, // first 10 % set per algorithm
	},
	// One Runner, one goroutine, serial engine, 32x32 Duato: three
	// loads fault-free plus one with 30 random faults, back to back.
	"mesh32_single": {
		rounds: 3, serial: true, tailPct: 1,
		points: func(cfg config, round int) []sweep.Point {
			var pts []sweep.Point
			for _, c := range []struct {
				rate   float64
				faults int
			}{{0.0002, 0}, {0.0005, 0}, {0.0008, 0}, {0.0005, 30}} {
				p := sim.DefaultParams()
				p.Width, p.Height = 32, 32
				p.Algorithm, p.Rate, p.Faults = "Duato", c.rate, c.faults
				p.WarmupCycles, p.MeasureCycles = cfg.cycles(900), cfg.cycles(2700)
				p.FaultSeed = 1 + cfg.seed*16 + int64(round)
				p.Seed = cfg.seed*1000 + int64(round)
				pts = append(pts, sweep.Point{Key: fmt.Sprintf("32x32@%g/%d", c.rate, c.faults), Params: p})
			}
			return pts
		},
		sample: func(pts []sweep.Point) []sweep.Point { return pts },
	},
}

// everyNth picks element off of every group of n consecutive points.
func everyNth(pts []sweep.Point, n, off int) []sweep.Point {
	var out []sweep.Point
	for i := off; i < len(pts); i += n {
		out = append(out, pts[i])
	}
	return out
}

// execute runs one round's cells the way the workload defines.
func (s sweepSpec) execute(pts []sweep.Point) []sweep.Outcome {
	if !s.serial {
		return sweep.Run(pts, sweepWorkers, nil)
	}
	out := make([]sweep.Outcome, len(pts))
	r := sim.NewRunner()
	defer r.Close()
	for i, pt := range pts {
		res, err := r.Run(pt.Params)
		out[i] = sweep.Outcome{Point: pt, Result: res, Err: err}
	}
	return out
}

func (s sweepSpec) workers() int {
	if s.serial {
		return 1
	}
	return sweepWorkers
}

// warmup is the untimed pass that ends set-up: the first round's cells
// at a tenth of their length through the same executor, so lazy runtime
// and allocator set-up is paid before the window opens.
func (s sweepSpec) warmup(pts []sweep.Point) error {
	warm := append([]sweep.Point(nil), pts...)
	for i := range warm {
		p := &warm[i].Params
		p.WarmupCycles, p.MeasureCycles = max(50, p.WarmupCycles/10), max(50, p.MeasureCycles/10)
	}
	return sweep.FirstError(s.execute(warm))
}

func runSweepWorkload(cfg config, res *results) error {
	spec := sweepSpecs[cfg.workload]
	if cfg.trace {
		spec.rounds = 1 // the traced pass takes the rest of the time
	}

	// Set-up, repeated so its median is steady: build every round's
	// points, load the golden, warm up.
	const setupReps = 3
	var setups []float64
	var rounds [][]sweep.Point
	var chk *checker
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		rounds = rounds[:0]
		for r := 0; r < spec.rounds; r++ {
			rounds = append(rounds, spec.points(cfg, r))
		}
		var err error
		if chk, err = newChecker(cfg, res); err != nil {
			return err
		}
		if err := spec.warmup(rounds[0]); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.emit("setup_s", median(setups), len(setups))
	runtime.GC()

	// Timed window: each round is one complete batch; throughput, CPU
	// cost and the tail percentile are medians over rounds, the median
	// latency pools every cell.
	var rate, cpuPerM, busy, tailIdle, cellMS, tails, lat, norm []float64
	var allocs, bytes uint64
	var totals core.Stats
	var vcAcquired int64
	var cells int
	var firstRound []sweep.Outcome
	for r, pts := range rounds {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0, t0 := selfCPU(), time.Now()
		outcomes := spec.execute(pts)
		wall, cpu := time.Since(t0), selfCPU()-cpu0
		runtime.ReadMemStats(&m1)

		var cycles int64
		var elapsed time.Duration
		roundStart := len(cellMS)
		for _, o := range outcomes {
			chk.cell(o.Point.Params, o.Result.Stats, o.Err)
			if o.Err != nil {
				continue
			}
			cycles += o.Point.Params.WarmupCycles + o.Point.Params.MeasureCycles
			elapsed += o.Result.Elapsed
			cellMS = append(cellMS, ms(o.Result.Elapsed))
			st := o.Result.Stats
			totals.FlitHops += st.FlitHops
			totals.Injected += st.Injected
			totals.Delivered += st.Delivered
			totals.Generated += st.Generated
			totals.Refused += st.Refused
			totals.Killed += st.Killed
			totals.DeadlockEvents += st.DeadlockEvents
			totals.RingEntries += st.RingEntries
			for _, n := range st.VCAcquired {
				vcAcquired += n
			}
			if l := st.AvgLatency(); !math.IsNaN(l) {
				lat = append(lat, l)
			}
			norm = append(norm, o.Result.NormalizedThroughput())
		}
		tails = append(tails, percentile(cellMS[roundStart:], spec.tailPct))
		cells += len(outcomes)
		allocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
		rate = append(rate, float64(cycles)/wall.Seconds())
		cpuPerM = append(cpuPerM, cpu.Seconds()/float64(cycles)*1e6)
		w := float64(spec.workers())
		busy = append(busy, elapsed.Seconds()/(w*wall.Seconds()))
		tailIdle = append(tailIdle, w*wall.Seconds()-elapsed.Seconds())
		if r == 0 {
			firstRound = outcomes
		}
	}
	if len(cellMS) == 0 {
		return fmt.Errorf("no cell completed")
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	res.emit("sim_cycles_per_s", median(rate), len(rate))
	res.emit("cpu_s_per_mcycle", median(cpuPerM), len(cpuPerM))
	res.emit("latency_p50_ms", median(cellMS), len(cellMS))
	res.emit("latency_tail_ms", median(tails), len(cellMS))
	res.emit("peak_rss_mb", rss, 1)

	res.emit("core.flit_hops", float64(totals.FlitHops), cells)
	res.emit("core.vc_acquired", float64(vcAcquired), cells)
	res.emit("core.injected", float64(totals.Injected), cells)
	res.emit("core.delivered", float64(totals.Delivered), cells)
	res.emit("core.refused", float64(totals.Refused), cells)
	res.emit("core.killed", float64(totals.Killed), cells)
	res.emit("core.deadlock_events", float64(totals.DeadlockEvents), cells)
	res.emit("core.ring_entries", float64(totals.RingEntries), cells)
	res.emit("core.accept_ratio", float64(totals.Delivered)/math.Max(1, float64(totals.Generated)), cells)
	res.emit("traffic.generated", float64(totals.Generated), cells)
	res.emit("sim.cell_ms_p50", median(cellMS), len(cellMS))
	res.emit("sim.cell_ms_max", percentile(cellMS, 1), len(cellMS))
	res.emit("sim.allocs_per_cell", float64(allocs)/float64(cells), cells)
	res.emit("sim.bytes_per_cell", float64(bytes)/float64(cells), cells)
	res.emit("sim.avg_latency_cycles", mean(lat), len(lat))
	res.emit("sim.norm_throughput", mean(norm), len(norm))
	res.emit("sweep.worker_busy_share", median(busy), len(busy))
	res.emit("sweep.tail_idle_s", median(tailIdle), len(tailIdle))

	// Exactness beyond the golden, for any seed: a cell re-run alone on
	// a fresh one-shot Runner must reproduce the batch's digest — the
	// determinism contract (same Stats for any worker count or reuse).
	for _, o := range []sweep.Outcome{firstRound[0], firstRound[len(firstRound)-1]} {
		if o.Err != nil {
			continue
		}
		again, err := sim.Run(o.Point.Params)
		res.op(sameDigest("one-shot re-run of "+cellKey(o.Point.Params), o.Result.Stats, again.Stats, err))
	}

	if cfg.trace {
		if err := tracedSweepPass(cfg, res, spec, rounds[0], firstRound); err != nil {
			return err
		}
	}
	return chk.finish(cfg)
}

// sameDigest returns an error unless two Stats are bit-identical.
func sameDigest(what string, a, b core.Stats, runErr error) error {
	if runErr != nil {
		return fmt.Errorf("%s: %v", what, runErr)
	}
	da, err := metrics.DigestJSON(a)
	if err != nil {
		return err
	}
	db, err := metrics.DigestJSON(b)
	if err != nil {
		return err
	}
	if da != db {
		return fmt.Errorf("%s: digest %s, expected %s", what, db, da)
	}
	return nil
}

// cellTiming is what the hand-driven loop measured for one cell.
type cellTiming struct {
	fault, routing, network, source time.Duration // set-up calls
	tick, step                      time.Duration // summed over every cycle
	wall                            time.Duration
	reused                          bool // network came from Reset, not NewNetwork
	cycles                          int64
	inflightSum, inflightN          float64
	ringNodes                       int
	stats                           core.Stats
}

// handDrive runs one cell through the same sequence of public calls
// sim.Runner.RunWithFaults makes — same RNG seeding and draw order,
// same config normalisation, same warm-up cut — timing each layer's
// calls from outside. prev, when it matches the cell's topology and
// config, is Reset and reused exactly as the Runner would. The
// returned Stats are bit-identical to Runner.Run's (TestHandDriveMatchesRunner).
func handDrive(p sim.Params, prev *core.Network, span *trace.Span) (cellTiming, *core.Network, error) {
	var t cellTiming
	start := time.Now()

	sp := span.Child("fault.generate")
	f, err := sim.BuildFaults(p)
	sp.End()
	t.fault = time.Since(start)
	if err != nil {
		return t, prev, err
	}
	cfg := p.Config
	if cfg.NumVCs == 0 {
		cfg = sim.DefaultEngineConfig()
	}
	if cfg.MaxHops == 0 {
		cfg.MaxHops = int32(16 * f.Topo.Diameter())
	}
	if cfg.StallScanInterval <= 0 {
		cfg.StallScanInterval = 1024
	}

	t0 := time.Now()
	sp = span.Child("routing.new")
	alg, err := routing.New(p.Algorithm, f, cfg.NumVCs)
	sp.End()
	t.routing = time.Since(t0)
	if err != nil {
		return t, prev, err
	}

	engRng := rand.New(rand.NewSource(p.Seed))
	trafRng := rand.New(rand.NewSource(p.Seed + 0x9e3779b9))
	t0 = time.Now()
	net := prev
	if net != nil && net.Topo == f.Topo && net.Cfg == cfg {
		sp = span.Child("core.reset")
		err = net.Reset(f, alg, engRng)
		t.reused = true
	} else {
		if net != nil {
			net.Close()
		}
		sp = span.Child("core.new_network")
		net, err = core.NewNetwork(f.Topo, f, alg, cfg, engRng)
	}
	sp.End()
	t.network = time.Since(t0)
	if err != nil {
		return t, nil, err
	}
	net.DisableParallel()

	t0 = time.Now()
	sp = span.Child("traffic.new_source")
	pat, err := traffic.NewPattern(p.Pattern, f)
	var src *traffic.Source
	if err == nil {
		src, err = traffic.NewSource(f, pat, p.Rate, p.MessageLength, trafRng)
	}
	sp.End()
	t.source = time.Since(t0)
	if err != nil {
		return t, net, err
	}
	src.Alloc = net.AcquireMessage

	loop := span.Child("loop")
	offer := net.Offer
	cycle := int64(0)
	run := func(until int64) {
		mark := time.Now()
		for ; cycle < until; cycle++ {
			src.Tick(cycle, offer)
			afterTick := time.Now()
			net.Step()
			afterStep := time.Now()
			t.tick += afterTick.Sub(mark)
			t.step += afterStep.Sub(afterTick)
			mark = afterStep
			if cycle&255 == 0 {
				t.inflightSum += float64(net.InFlight())
				t.inflightN++
			}
		}
	}
	run(p.WarmupCycles)
	if p.MeasureCycles > 0 {
		net.ResetStats()
		run(p.WarmupCycles + p.MeasureCycles)
	}
	loop.Set("tick_ns", t.tick.Nanoseconds())
	loop.Set("step_ns", t.step.Nanoseconds())
	loop.End()

	t.stats = net.Snapshot()
	if p.MeasureCycles > 0 {
		t.stats.EffectiveWarmup = p.WarmupCycles
	}
	t.cycles = cycle
	for _, id := range f.HealthyNodes() {
		if f.OnAnyRing(id) {
			t.ringNodes++
		}
	}
	t.wall = time.Since(start)
	return t, net, nil
}

// tracedSweepPass is the per-layer half of an offline workload: it
// re-drives a fixed sample of cells by hand with a clock around every
// layer call, checks each against the Runner's result for the same
// cell, runs the direct layer probes, and writes the benchmark-side
// spans as a Chrome trace.
func tracedSweepPass(cfg config, res *results, spec sweepSpec, pts []sweep.Point, batch []sweep.Outcome) error {
	tracer := trace.New(4096)
	root := tracer.Start(cfg.workload+" traced pass", trace.Context{})
	sample := spec.sample(pts)

	runner := sim.NewRunner()
	defer runner.Close()
	var net *core.Network
	defer func() {
		if net != nil {
			net.Close()
		}
	}()
	var sum cellTiming
	var plain time.Duration
	var newNet, reset, tickShare []float64
	var flitHops int64
	for _, pt := range sample {
		ps := root.Child("sim.Runner.Run " + pt.Key)
		ref, err := runner.Run(pt.Params)
		ps.End()
		if err != nil {
			res.op(fmt.Errorf("traced reference run %s: %v", pt.Key, err))
			continue
		}
		plain += ref.Elapsed

		cs := root.Child("hand-driven " + pt.Key)
		var t cellTiming
		t, net, err = handDrive(pt.Params, net, cs)
		cs.End()
		res.op(sameDigest("hand-driven loop for "+cellKey(pt.Params), ref.Stats, t.stats, err))
		if err != nil {
			continue
		}
		sum.fault += t.fault
		sum.routing += t.routing
		sum.network += t.network
		sum.source += t.source
		sum.tick += t.tick
		sum.step += t.step
		sum.wall += t.wall
		sum.cycles += t.cycles
		sum.inflightSum += t.inflightSum
		sum.inflightN += t.inflightN
		sum.ringNodes += t.ringNodes
		flitHops += t.stats.FlitHops
		tickShare = append(tickShare, 100*t.tick.Seconds()/t.wall.Seconds())
		if t.reused {
			reset = append(reset, float64(t.network.Microseconds()))
		} else {
			newNet = append(newNet, float64(t.network.Microseconds()))
		}
	}
	if sum.cycles == 0 {
		return fmt.Errorf("traced pass: no cell completed")
	}
	n := len(sample)
	setup := sum.fault + sum.routing + sum.network + sum.source
	res.emit("core.new_network_us", mean(newNet), len(newNet))
	res.emit("core.reset_us", mean(reset), len(reset))
	res.emit("core.step_ns", float64(sum.step.Nanoseconds())/float64(sum.cycles), int(sum.cycles))
	res.emit("core.ns_per_flit_hop", float64(sum.step.Nanoseconds())/math.Max(1, float64(flitHops)), int(flitHops))
	res.emit("core.inflight_mean", sum.inflightSum/math.Max(1, sum.inflightN), int(sum.inflightN))
	res.emit("traffic.tick_ns", float64(sum.tick.Nanoseconds())/float64(sum.cycles), int(sum.cycles))
	res.emit("traffic.tick_share_pct", mean(tickShare), n) // mean of per-cell shares: light cells count as much as heavy ones
	res.emit("sim.setup_share", setup.Seconds()/sum.wall.Seconds(), n)
	res.emit("fault.ring_nodes", float64(sum.ringNodes), n)
	res.emit("trace.coverage_pct", 100*(setup+sum.tick+sum.step).Seconds()/sum.wall.Seconds(), n)
	res.emit("trace.overhead_pct", 100*(sum.wall.Seconds()/plain.Seconds()-1), n)

	if err := layerProbes(cfg, res, root, sample, batch); err != nil {
		return err
	}
	root.End()
	return writeChrome(cfg, tracer, root.TraceID())
}

// writeChrome writes the benchmark-side spans of one traced run to
// <out>/trace-<workload>.json (Chrome trace-event JSON; loads in
// Perfetto).
func writeChrome(cfg config, tracer *trace.Tracer, id trace.TraceID) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, tracer.Collect(id)); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}
