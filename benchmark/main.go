// Command benchmark is the repository's system benchmark: five named
// workloads that measure the simulator from one engine step to the HTTP
// edge of a real meshserve process, check every simulated output
// against a recorded golden, and (in the traced run) attribute the time
// to the layer that spent it. BENCHMARK.json at the repo root names the
// metrics; README.md beside this file explains them.
//
//	go run ./benchmark                       all workloads, plain
//	go run ./benchmark -workload serve_hot   one workload, in this process
//	go run ./benchmark -trace 1              per-layer metrics and spans
//	go run ./benchmark -runs 5               repeat; medians and quartiles
//
// One workload at -runs 1 runs in this process and ends with a single
// JSON line ({"correct","attempted","failed","metrics"}); anything else
// re-executes this binary once per (workload, run) so peak RSS, GC state
// and Runner caches never leak between workloads, and aggregates those
// lines.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// config is one invocation's settings, shared by every workload.
type config struct {
	workload     string
	seed         int64
	seconds      float64
	scale        int
	trace        bool
	runs         int
	outDir       string
	updateGolden bool

	root    string // module root: where go build runs and golden.json lives
	scratch string // <root>/.bench_build: binaries, temp caches, trace files
}

// factor scales the amount of simulated work: sized so that one run
// measures for about -seconds on the 2-vCPU reference host at 1.0.
func (c config) factor() float64 { return c.seconds / 10 / float64(c.scale) }

// cycles scales a cycle count by factor, keeping it a positive multiple
// of 50 so scaled runs still have round warm-up cuts.
func (c config) cycles(base int64) int64 {
	n := int64(float64(base)*c.factor()/50+0.5) * 50
	if n < 50 {
		n = 50
	}
	return n
}

type workload struct {
	name string
	why  string
	run  func(config, *results) error
}

var workloads = []workload{
	{"fig2_light", "stable-region load: few routers busy, so the worklist/idle path and traffic generation are a large share; a saturated-step optimisation should not move it", runSweepWorkload},
	{"fig4_faults", "saturating load over 0/5/10% fault sets: every router busy every cycle, route/VC/switch/commit dominate, f-ring memo tables and watchdog kills are used; an idle-path optimisation should not move it", runSweepWorkload},
	{"mesh32_single", "one serial 32x32 run at a time: single-run latency where cell-level parallelism cannot help; working set beyond L2, lazy memo rows, Network.Reset reuse", runSweepWorkload},
	{"serve_hot", "cache-hit read path of a real meshserve under open-loop Poisson arrivals then closed loop; no simulation runs, so a cold-path change should show nothing", runServeHot},
	{"serve_cold", "cache-miss write path of a real meshserve: queue, singleflight join, observed simulation, store write, surrogate answer; a hit-path change should show nothing", runServeCold},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func main() {
	var cfg config
	var trace string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all five, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: shifts traffic seeds, fault seeds, key draws and arrival schedule")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window the work is sized for")
	flag.IntVar(&cfg.scale, "scale", 1, "divide cycles, key counts and phase lengths by this (smoke tests use 20)")
	flag.StringVar(&trace, "trace", "0", "1 = traced run: per-layer metrics, spans and Chrome trace files")
	flag.IntVar(&cfg.runs, "runs", 1, "repeat each workload and report median and quartiles")
	flag.StringVar(&cfg.outDir, "out", "", "directory for trace-<workload>.json and results.json (default .bench_build/out)")
	flag.BoolVar(&cfg.updateGolden, "update-golden", false, "rewrite golden.json from this run's digests")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	var err error
	if cfg.trace, err = strconv.ParseBool(trace); err != nil {
		fatalf("-trace %q: want 0 or 1", trace)
	}
	if cfg.seconds <= 0 || cfg.scale < 1 || cfg.runs < 1 {
		fatalf("-seconds, -scale and -runs must be positive")
	}
	if cfg.workload != "" && findWorkload(cfg.workload) == nil {
		fatalf("unknown workload %q", cfg.workload)
	}
	if cfg.root, err = moduleRoot(); err != nil {
		fatalf("%v", err)
	}
	cfg.scratch = filepath.Join(cfg.root, ".bench_build")
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(cfg.scratch, "out")
	}

	// Servers and temp directories are released on every exit path,
	// including a signal: a leaked meshserve would skew the next run.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup.run()
		os.Exit(130)
	}()

	// A panic (a bug in the benchmark) must not leak a server either.
	defer func() {
		if r := recover(); r != nil {
			cleanup.run()
			panic(r)
		}
	}()

	var ok bool
	if cfg.workload != "" && cfg.runs == 1 {
		ok, err = runOne(cfg)
	} else {
		ok, err = runMany(cfg)
	}
	cleanup.run()
	if err != nil {
		fatalf("%v", err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	cleanup.run()
	os.Exit(2)
}

// moduleRoot walks up from the working directory to the go.mod that
// declares module wormmesh (go test runs in the package directory, the
// driver in the checkout root).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(data, []byte("module wormmesh\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no wormmesh go.mod above the working directory: run from the repository checkout")
		}
		dir = parent
	}
}

// runOne executes one workload in this process and prints its result:
// a table line per metric, then the JSON line the driver reads.
func runOne(cfg config) (bool, error) {
	w := findWorkload(cfg.workload)
	res := newResults(cfg)
	if err := w.run(cfg, res); err != nil {
		return false, fmt.Errorf("%s: %w", w.name, err)
	}
	line, err := res.finish()
	if err != nil {
		return false, fmt.Errorf("%s: %w", w.name, err)
	}
	res.printTable(os.Stdout)
	fmt.Println(line)
	return res.correct(), nil
}

// runLine is the JSON line one workload run ends with.
type runLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runMany runs each selected workload -runs times, each in a fresh
// child of this binary, and reports per-metric medians and quartiles.
func runMany(cfg config) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	type summary struct {
		Workload string             `json:"workload"`
		Runs     []runLine          `json:"runs"`
		Median   map[string]float64 `json:"median"`
		Q1       map[string]float64 `json:"q1"`
		Q3       map[string]float64 `json:"q3"`
	}
	var doc []summary
	allOK := true
	for _, name := range names {
		s := summary{Workload: name, Median: map[string]float64{}, Q1: map[string]float64{}, Q3: map[string]float64{}}
		for r := 0; r < cfg.runs; r++ {
			args := []string{
				"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"-scale", strconv.Itoa(cfg.scale), "-out", cfg.outDir,
				"-trace", strconv.FormatBool(cfg.trace),
			}
			if cfg.updateGolden {
				args = append(args, "-update-golden")
			}
			fmt.Printf("== %s run %d/%d\n", name, r+1, cfg.runs)
			line, err := runChild(self, args)
			if err != nil {
				return false, fmt.Errorf("%s: %w", name, err)
			}
			allOK = allOK && line.Correct
			s.Runs = append(s.Runs, line)
		}
		for _, def := range metricDefs {
			var vals []float64
			for _, r := range s.Runs {
				if v, ok := r.Metrics[def.Name]; ok {
					vals = append(vals, v.Value)
				}
			}
			if len(vals) > 0 {
				s.Q1[def.Name], s.Median[def.Name], s.Q3[def.Name] = quartiles(vals)
			}
		}
		doc = append(doc, s)
	}
	fmt.Printf("\n%-14s %-28s %14s %14s %14s  %-10s runs\n", "workload", "metric", "median", "q1", "q3", "unit")
	for _, s := range doc {
		for _, def := range metricDefs {
			if med, ok := s.Median[def.Name]; ok {
				fmt.Printf("%-14s %-28s %14.6g %14.6g %14.6g  %-10s %d\n",
					s.Workload, def.Name, med, s.Q1[def.Name], s.Q3[def.Name], def.Unit, len(s.Runs))
			}
		}
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return false, err
	}
	fmt.Println(string(data))
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return false, err
	}
	return allOK, os.WriteFile(filepath.Join(cfg.outDir, "results.json"), append(data, '\n'), 0o644)
}

// runChild runs one workload in a child process, echoing its table and
// returning the parsed final JSON line.
func runChild(self string, args []string) (runLine, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return runLine{}, err
	}
	if err := cmd.Start(); err != nil {
		return runLine{}, err
	}
	cleanup.add(func() { _ = cmd.Process.Kill() })
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	werr := cmd.Wait()
	var line runLine
	if !strings.HasPrefix(last, "{") || json.Unmarshal([]byte(last), &line) != nil {
		if last != "" {
			fmt.Println(last)
		}
		return runLine{}, fmt.Errorf("child printed no result line (exit: %v)", werr)
	}
	return line, nil
}

// cleanup is the process-wide release list (servers, temp directories),
// run exactly once on normal exit, fatal error or signal.
var cleanup cleanupList

type cleanupList struct {
	mu  sync.Mutex // a signal may race normal exit
	fns []func()
}

func (c *cleanupList) add(fn func()) {
	c.mu.Lock()
	c.fns = append(c.fns, fn)
	c.mu.Unlock()
}

func (c *cleanupList) run() {
	c.mu.Lock()
	fns := c.fns
	c.fns = nil
	c.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}
