// Package sweep runs batches of simulations in parallel and aggregates
// replicated results. One simulation is strictly sequential (the
// engine is deterministic per seed); the parallelism the paper's
// methodology offers — many algorithms × loads × fault sets — is
// embarrassingly parallel and is exploited here with a worker pool.
package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"wormmesh/internal/sim"
)

// Point is one simulation to run, tagged for aggregation: outcomes
// sharing a Key are replications of the same experimental cell.
type Point struct {
	Key    string
	Params sim.Params
}

// Outcome pairs a point with its result (or error).
type Outcome struct {
	Point  Point
	Result sim.Result
	Err    error
}

// Run executes the points on `workers` goroutines (NumCPU when 0) and
// returns outcomes in input order. progress, when non-nil, is invoked
// after each completion with the done count; see RunContext for the
// callback contract.
func Run(points []Point, workers int, progress func(done, total int)) []Outcome {
	return RunContext(context.Background(), points, workers, progress)
}

// RunContext is Run with cancellation: once ctx is done, no further
// simulations start; points never started carry ctx.Err() as their
// outcome error. Simulations already in flight run to completion (a
// single run is seconds at most).
//
// Each worker owns one sim.Runner for its whole lifetime, so a sweep
// builds O(workers) networks — not O(points) — and reuses fault models
// and traffic state across the points it draws.
//
// Progress callback contract: progress may be called from any worker
// goroutine, but calls are serialized by an internal mutex — the
// callback never runs concurrently with itself, so it may mutate its
// captured state without its own locking. done counts completions
// (1..total) and each value is delivered exactly once, though values
// may arrive out of order when workers finish near-simultaneously. The
// callback must not call back into the sweep.
func RunContext(ctx context.Context, points []Point, workers int, progress func(done, total int)) []Outcome {
	return runContext(ctx, points, workers, progress, nil)
}

// runContext is the shared worker-pool core behind RunContext and
// RunCachedContext; cache may be nil.
func runContext(ctx context.Context, points []Point, workers int, progress func(done, total int), cache Cache) []Outcome {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(points) {
		workers = len(points)
	}
	out := make([]Outcome, len(points))
	var next, done int64
	var progressMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var runner *sim.Runner
			defer func() {
				if runner != nil {
					runner.Close()
				}
			}()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(points) {
					return
				}
				if cache != nil {
					if res, ok := cache.Lookup(points[i].Params); ok {
						out[i] = Outcome{Point: points[i], Result: res}
						d := int(atomic.AddInt64(&done, 1))
						if progress != nil {
							progressMu.Lock()
							progress(d, len(points))
							progressMu.Unlock()
						}
						continue
					}
				}
				if err := ctx.Err(); err != nil {
					out[i] = Outcome{Point: points[i], Err: err}
					continue
				}
				if runner == nil {
					// Lazily built so an all-hit batch constructs no network.
					runner = sim.NewRunner()
				}
				res, err := runner.Run(points[i].Params)
				out[i] = Outcome{Point: points[i], Result: res, Err: err}
				if cache != nil && err == nil {
					cache.Store(points[i].Params, res)
				}
				d := int(atomic.AddInt64(&done, 1))
				if progress != nil {
					progressMu.Lock()
					progress(d, len(points))
					progressMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// Cell is the aggregate of the replications sharing one key.
type Cell struct {
	Key string
	N   int

	Throughput     Moments // flits per node per cycle
	Normalized     Moments // fraction of bisection capacity
	Latency        Moments // cycles, generation to tail delivery
	NetLatency     Moments
	Detour         Moments // extra hops beyond minimal
	KilledFraction Moments // killed / generated
	Errors         []error
}

// Moments accumulates mean and standard deviation online.
type Moments struct {
	N    int
	Sum  float64
	SumQ float64
}

// Add folds in one observation; NaNs are skipped.
func (m *Moments) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	m.N++
	m.Sum += v
	m.SumQ += v * v
}

// Mean returns the sample mean (NaN when empty).
func (m Moments) Mean() float64 {
	if m.N == 0 {
		return math.NaN()
	}
	return m.Sum / float64(m.N)
}

// CI95 returns the half-width of the 95% confidence interval of the
// mean using Student's t (zero when fewer than two observations).
func (m Moments) CI95() float64 {
	if m.N < 2 {
		return 0
	}
	return sim.TCritical95(m.N-1) * m.Std() / math.Sqrt(float64(m.N))
}

// Std returns the sample standard deviation.
func (m Moments) Std() float64 {
	if m.N < 2 {
		return 0
	}
	n := float64(m.N)
	mean := m.Sum / n
	v := (m.SumQ - n*mean*mean) / (n - 1)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Aggregate groups outcomes by key and folds their headline metrics.
// Keys appear in first-seen order.
func Aggregate(outcomes []Outcome) []Cell {
	index := map[string]int{}
	var cells []Cell
	for _, o := range outcomes {
		i, ok := index[o.Point.Key]
		if !ok {
			i = len(cells)
			index[o.Point.Key] = i
			cells = append(cells, Cell{Key: o.Point.Key})
		}
		c := &cells[i]
		if o.Err != nil {
			c.Errors = append(c.Errors, o.Err)
			continue
		}
		c.N++
		st := o.Result.Stats
		c.Throughput.Add(st.Throughput())
		c.Normalized.Add(o.Result.NormalizedThroughput())
		c.Latency.Add(st.AvgLatency())
		c.NetLatency.Add(st.AvgNetLatency())
		c.Detour.Add(st.AvgDetour())
		if st.Generated > 0 {
			c.KilledFraction.Add(float64(st.Killed) / float64(st.Generated))
		}
	}
	return cells
}

// FirstError returns the first error among the outcomes, or nil.
func FirstError(outcomes []Outcome) error {
	for _, o := range outcomes {
		if o.Err != nil {
			return fmt.Errorf("sweep: point %q: %w", o.Point.Key, o.Err)
		}
	}
	return nil
}

// FaultReplicas expands one base configuration into n points that
// differ only in their fault seed (and traffic seed), the paper's
// "10 different fault sets averaged".
func FaultReplicas(key string, base sim.Params, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		p := base
		p.FaultSeed = base.FaultSeed + int64(1000*i)
		p.Seed = base.Seed + int64(i)
		pts[i] = Point{Key: key, Params: p}
	}
	return pts
}

// SortCells orders cells by key (for deterministic test output).
func SortCells(cells []Cell) {
	sort.Slice(cells, func(i, j int) bool { return cells[i].Key < cells[j].Key })
}
