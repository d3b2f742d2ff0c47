package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one named metric. The end-to-end ones (and their
// bounds) are mirrored in BENCHMARK.json; TestBenchmarkJSON keeps the
// two in step.
type metricDef struct {
	Name     string
	Unit     string
	Better   string  // "lower" | "higher"
	Bound    float64 // end-to-end only: share of the median it may worsen by
	EndToEnd bool
	// Free per-layer metrics cost nothing to collect, so the plain run
	// prints them too; the rest need the traced pass.
	Free bool
}

func e2e(name, unit, better string, bound float64) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Bound: bound, EndToEnd: true}
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

func free(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Free: true}
}

// metricDefs is every metric the benchmark can emit, in print order.
// Every workload reports every end-to-end metric: "latency" is the
// workload's own operation (a cell run, a cache hit, a never-seen cell)
// and "simulated cycles" are those of the exact results it delivered.
var metricDefs = []metricDef{
	e2e("setup_s", "s", "lower", 0.25),
	e2e("sim_cycles_per_s", "cycles/s", "higher", 0.25),
	e2e("cpu_s_per_mcycle", "s/Mcycle", "lower", 0.25),
	e2e("latency_p50_ms", "ms", "lower", 0.25),
	e2e("latency_tail_ms", "ms", "lower", 0.25),
	e2e("peak_rss_mb", "MB", "lower", 0.2),

	layer("fault.generate_us", "us", "lower"),
	layer("fault.ring_nodes", "count", "lower"),
	layer("routing.new_us", "us", "lower"),
	layer("routing.candidates_ns", "ns", "lower"),
	layer("routing.candidates_per_call", "count", "lower"),
	layer("core.new_network_us", "us", "lower"),
	layer("core.reset_us", "us", "lower"),
	layer("core.step_ns", "ns", "lower"),
	layer("core.ns_per_flit_hop", "ns", "lower"),
	layer("core.inflight_mean", "count", "lower"),
	layer("core.step_parallel_w1_ns", "ns", "lower"),
	layer("core.step_parallel_w2_ns", "ns", "lower"),
	free("core.flit_hops", "count", "higher"),
	free("core.vc_acquired", "count", "higher"),
	free("core.injected", "count", "higher"),
	free("core.delivered", "count", "higher"),
	free("core.refused", "count", "lower"),
	free("core.killed", "count", "lower"),
	free("core.deadlock_events", "count", "lower"),
	free("core.ring_entries", "count", "lower"),
	free("core.accept_ratio", "ratio", "higher"),
	layer("traffic.tick_ns", "ns", "lower"),
	layer("traffic.tick_share_pct", "%", "lower"),
	free("traffic.generated", "count", "higher"),
	free("sim.cell_ms_p50", "ms", "lower"),
	free("sim.cell_ms_max", "ms", "lower"),
	layer("sim.setup_share", "ratio", "lower"),
	free("sim.allocs_per_cell", "count", "lower"),
	free("sim.bytes_per_cell", "B", "lower"),
	free("sim.avg_latency_cycles", "cycles", "lower"),
	free("sim.norm_throughput", "ratio", "higher"),
	free("sweep.worker_busy_share", "ratio", "higher"),
	free("sweep.tail_idle_s", "s", "lower"),
	layer("sweep.aggregate_us", "us", "lower"),
	layer("analytic.build_ms", "ms", "lower"),
	layer("analytic.predict_ns", "ns", "lower"),
	layer("analytic.stable_err_pct", "%", "lower"),
	layer("serve.key_us", "us", "lower"),
	layer("serve.key_allocs", "count", "lower"),
	layer("serve.lookup_mem_ns", "ns", "lower"),
	layer("serve.lookup_disk_us", "us", "lower"),
	layer("serve.put_us", "us", "lower"),
	layer("serve.handler_hit_us", "us", "lower"),
	layer("serve.handler_hit_allocs", "count", "lower"),
	free("serve.hit_capacity_rps", "1/s", "higher"),
	free("serve.miss_cells_per_s", "1/s", "higher"),
	free("serve.model_p50_ms", "ms", "lower"),
	free("serve.http_run_mean_us", "us", "lower"),
	free("serve.lookup_mem_mean_us", "us", "lower"),
	free("serve.lookup_disk_mean_us", "us", "lower"),
	free("serve.queue_wait_mean_ms", "ms", "lower"),
	free("serve.run_mean_ms", "ms", "lower"),
	free("serve.mem_hit_share", "ratio", "higher"),
	free("serve.disk_hit_share", "ratio", "lower"),
	free("serve.dedup", "count", "higher"),
	free("serve.model_answers", "count", "higher"),
	free("serve.simulations", "count", "lower"),
	free("serve.rejected_429", "count", "lower"),
	free("serve.useful_sim_ratio", "ratio", "higher"),
	free("serve.wire_overhead_us", "us", "lower"),
	free("serve.cpu_us_per_req", "us", "lower"),
	layer("serve.service_overhead_pct", "%", "lower"),
	layer("serve.span_normalize_us", "us", "lower"),
	layer("serve.span_lookup_us", "us", "lower"),
	layer("serve.span_model_us", "us", "lower"),
	layer("serve.span_queue_wait_ms", "ms", "lower"),
	layer("serve.span_run_ms", "ms", "lower"),
	layer("serve.span_store_write_ms", "ms", "lower"),
	layer("trace.overhead_pct", "%", "lower"),
	layer("trace.coverage_pct", "%", "higher"),
	free("load.sent", "count", "higher"),
	free("load.ok", "count", "higher"),
	free("load.failed", "count", "lower"),
	free("load.lateness_p99_ms", "ms", "lower"),
	free("load.rate_ok_rps", "1/s", "higher"),
	free("load.p50_ms_at_1000rps", "ms", "lower"),
	free("load.p99_ms_at_1000rps", "ms", "lower"),
	free("load.p50_ms_at_2000rps", "ms", "lower"),
	free("load.p99_ms_at_2000rps", "ms", "lower"),
	free("load.p50_ms_at_4000rps", "ms", "lower"),
	free("load.p99_ms_at_4000rps", "ms", "lower"),
}

func findMetric(name string) *metricDef {
	for i := range metricDefs {
		if metricDefs[i].Name == name {
			return &metricDefs[i]
		}
	}
	return nil
}

// results collects one workload run: the metrics it emitted, the
// operations it attempted and failed, and the reasons for failures.
type results struct {
	cfg       config
	vals      map[string]float64
	samples   map[string]int
	attempted int64
	failed    int64
	problems  []string // first few failure descriptions, for the operator
	notes     []string // e.g. "golden: skipped"
}

func newResults(cfg config) *results {
	return &results{cfg: cfg, vals: map[string]float64{}, samples: map[string]int{}}
}

// emit records a metric with the number of samples behind it. Emitting
// an undeclared name or the same name twice is a bug in the benchmark.
func (r *results) emit(name string, value float64, samples int) {
	if findMetric(name) == nil {
		panic("benchmark: metric " + name + " is not declared in metricDefs")
	}
	if _, dup := r.vals[name]; dup {
		panic("benchmark: metric " + name + " emitted twice")
	}
	r.vals[name] = value
	r.samples[name] = samples
}

// op counts one attempted operation; a non-nil err counts it failed.
func (r *results) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err.Error())
	}
}

// ops counts n successful operations at once (hot loops tally locally).
func (r *results) ops(n int64) { r.attempted += n }

func (r *results) fail(why string) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, why)
	}
}

func (r *results) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *results) correct() bool { return r.failed == 0 && r.attempted > 0 }

// finish validates the metric set for the run's mode and renders the
// final JSON line: the end-to-end metrics for a plain run, every
// per-layer metric for a traced one (0 where a layer is not on this
// workload's path).
func (r *results) finish() (string, error) {
	line := runLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, def := range metricDefs {
		v, ok := r.vals[def.Name]
		if def.EndToEnd {
			if !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return "", fmt.Errorf("end-to-end metric %s missing or not positive (%v)", def.Name, v)
			}
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is not finite", def.Name)
		}
		if def.EndToEnd != r.cfg.trace {
			line.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
		}
	}
	data, err := json.Marshal(line)
	return string(data), err
}

// printTable writes one line per emitted metric — name, value, unit,
// sample count — then notes and failure reasons.
func (r *results) printTable(w io.Writer) {
	for _, def := range metricDefs {
		if v, ok := r.vals[def.Name]; ok {
			fmt.Fprintf(w, "%-30s %16.6g %-9s n=%d\n", def.Name, v, def.Unit, r.samples[def.Name])
		}
	}
	fmt.Fprintf(w, "%-30s %16.6g %-9s n=%d\n", "failed_share", float64(r.failed)/math.Max(1, float64(r.attempted)), "ratio", r.attempted)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
}

// percentile returns the p-quantile (0..1) of vals by nearest rank on a
// sorted copy; NaN when empty.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// mean returns the arithmetic mean, 0 when there is nothing to average
// (a layer that saw no samples reports 0).
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// quartiles mirrors Python's statistics.quantiles(vals, n=4) (the
// exclusive method), the rule the A/A acceptance check uses.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns a process's user+system CPU time from
// /proc/<pid>/stat (fields 14 and 15, in USER_HZ ticks = 1/100 s on
// Linux).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume
	// after its closing parenthesis.
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

// peakRSSMB returns a process's high-water resident set (VmHWM) in MB;
// pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: bad VmHWM %q", path, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}
