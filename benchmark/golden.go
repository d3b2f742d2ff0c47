package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"wormmesh/internal/core"
	"wormmesh/internal/metrics"
	"wormmesh/internal/sim"
)

// goldenFile is golden.json: for each workload, cell key ->
// metrics.DigestJSON(Stats), together with the settings the cells were
// recorded at. The committed file is recorded at -seed 1 -scale 1
// -seconds 10; a run at other settings has different cells, so it
// checks invariants only. Only -update-golden rewrites the file. A
// simulator speed-up must leave every digest unchanged.
type goldenFile struct {
	RecordedAt goldenSettings               `json:"recorded_at"`
	Cells      map[string]map[string]string `json:"cells"`
}

type goldenSettings struct {
	Seed    int64   `json:"seed"`
	Scale   int     `json:"scale"`
	Seconds float64 `json:"seconds"`
}

func (c config) goldenSettings() goldenSettings {
	return goldenSettings{Seed: c.seed, Scale: c.scale, Seconds: c.seconds}
}

func goldenPath(root string) string { return filepath.Join(root, "benchmark", "golden.json") }

func loadGolden(root string) (goldenFile, error) {
	g := goldenFile{Cells: map[string]map[string]string{}}
	data, err := os.ReadFile(goldenPath(root))
	if os.IsNotExist(err) {
		return g, nil
	}
	if err != nil {
		return g, err
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return g, fmt.Errorf("%s: %w", goldenPath(root), err)
	}
	return g, nil
}

// cellKey names a cell by everything that determines its Stats, spelled
// by the benchmark itself — not by serve.Key — so a change to the
// service's key function cannot silently orphan the goldens.
func cellKey(p sim.Params) string {
	return fmt.Sprintf("%dx%d %s rate=%g faults=%d/%d seed=%d cycles=%d+%d",
		p.Width, p.Height, p.Algorithm, p.Rate, p.Faults, p.FaultSeed, p.Seed, p.WarmupCycles, p.MeasureCycles)
}

// checkStats applies the exact invariants of a measurement window that
// hold for every run: the latency decomposition sums to the total (see
// core.Stats), every measured message was delivered, the window has the
// requested length, and the mean latency is finite when anything was
// measured.
func checkStats(p sim.Params, st core.Stats) error {
	if got := st.LatQueueSum + st.LatRouteSum + st.LatBlockedSum + st.LatMovingSum; got != st.LatencySum {
		return fmt.Errorf("latency components sum to %d, LatencySum is %d", got, st.LatencySum)
	}
	if st.LatencyCount > st.Delivered {
		return fmt.Errorf("LatencyCount %d exceeds Delivered %d", st.LatencyCount, st.Delivered)
	}
	if st.Cycles != p.MeasureCycles {
		return fmt.Errorf("window is %d cycles, asked for %d", st.Cycles, p.MeasureCycles)
	}
	if st.HealthyNodes <= 0 || st.Generated < 0 || st.Refused < 0 || st.Killed < 0 {
		return fmt.Errorf("negative or empty counters (healthy %d)", st.HealthyNodes)
	}
	if lat := st.AvgLatency(); st.LatencyCount > 0 && (math.IsNaN(lat) || math.IsInf(lat, 0) || lat <= 0) {
		return fmt.Errorf("mean latency %v over %d messages", lat, st.LatencyCount)
	}
	return nil
}

// checker verifies cells against the golden and tallies the outcome
// into results: each cell is one attempted operation that fails on a
// run error, an invariant violation or a digest mismatch.
type checker struct {
	res      *results
	workload string
	want     map[string]string // nil when the golden does not describe this run
	got      map[string]string // digests seen, for -update-golden
	update   bool
	matched  int
	unknown  int // cells with no golden entry
}

func newChecker(cfg config, res *results) (*checker, error) {
	c := &checker{res: res, workload: cfg.workload, got: map[string]string{}, update: cfg.updateGolden}
	if cfg.updateGolden {
		return c, nil
	}
	g, err := loadGolden(cfg.root)
	if err != nil {
		return nil, err
	}
	if g.RecordedAt == cfg.goldenSettings() {
		c.want = g.Cells[cfg.workload]
		if c.want == nil {
			c.want = map[string]string{}
		}
	}
	return c, nil
}

// cell checks one simulated cell and returns its Stats digest.
func (c *checker) cell(p sim.Params, st core.Stats, runErr error) string {
	key := cellKey(p)
	if runErr != nil {
		c.res.op(fmt.Errorf("%s: run error: %v", key, runErr))
		return ""
	}
	digest, err := metrics.DigestJSON(st)
	if err == nil {
		err = checkStats(p, st)
	}
	if err != nil {
		c.res.op(fmt.Errorf("%s: %v", key, err))
		return digest
	}
	c.res.op(c.digest(key, digest))
	return digest
}

// digest compares one cell digest (computed here or reported by the
// server) with the golden; it does not count an operation.
func (c *checker) digest(key, digest string) error {
	c.got[key] = digest
	if c.want == nil {
		return nil
	}
	want, ok := c.want[key]
	if !ok {
		c.unknown++
		return nil
	}
	if want != digest {
		return fmt.Errorf("%s: result digest %s, golden %s", key, digest, want)
	}
	c.matched++
	return nil
}

// finish reports golden coverage and, in update mode, rewrites the
// workload's section of golden.json. At the golden's own settings a
// cell without an entry is a failure: a silently skipped golden
// protects nothing.
func (c *checker) finish(cfg config) error {
	switch {
	case c.update:
		g, err := loadGolden(cfg.root)
		if err != nil {
			return err
		}
		delete(g.Cells, c.workload)
		if len(g.Cells) > 0 && g.RecordedAt != cfg.goldenSettings() {
			return fmt.Errorf("golden.json holds other workloads recorded at %+v; update at the same settings", g.RecordedAt)
		}
		g.RecordedAt = cfg.goldenSettings()
		g.Cells[c.workload] = c.got
		data, err := json.MarshalIndent(g, "", " ")
		if err != nil {
			return err
		}
		c.res.note("golden: rewrote %d entries for %s", len(c.got), c.workload)
		if err := os.MkdirAll(filepath.Dir(goldenPath(cfg.root)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(goldenPath(cfg.root), append(data, '\n'), 0o644)
	case c.want == nil:
		c.res.note("golden: skipped (golden.json is recorded at other -seed/-scale/-seconds); invariants checked on %d cells", len(c.got))
	default:
		c.res.note("golden: %d cells bit-identical, %d without an entry", c.matched, c.unknown)
		if c.unknown > 0 {
			c.res.fail(fmt.Sprintf("golden: %d cells have no entry in golden.json (run -update-golden after an intended change)", c.unknown))
		}
	}
	return nil
}
