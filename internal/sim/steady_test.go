package sim

import (
	"fmt"
	"math"
	"testing"

	"wormmesh/internal/metrics"
)

// detectorCell is one pinned steady-state decision: the warm-up the
// MSER rule chose or the cycle the CI rule stopped at, the half-width
// it reported, and a digest of the whole Stats value.
type detectorCell struct {
	alg         string
	rate        float64
	window      int64
	mode        string // "mser" or "stop"
	effWarmup   int64
	cycles      int64
	ciHalf      float64
	statsDigest string
}

// detectorParams is the cell's run: an 8×8 mesh with short messages so
// the 24-cell table stays well under two seconds. The BC-fortified Pbc
// runs over four random faults, so the f-ring paths are covered, and
// the 0.0003 rate leaves many 100-cycle batches without a delivery, so
// the empty-batch rules are exercised too.
func detectorParams(c detectorCell) Params {
	p := DefaultParams()
	p.Width, p.Height = 8, 8
	p.Algorithm = c.alg
	p.Rate = c.rate
	p.MessageLength = 16
	p.Seed = 77
	if c.alg == "Pbc" {
		p.Faults, p.FaultSeed = 4, 3
	}
	p.SteadyWindow = c.window
	if c.mode == "mser" {
		p.WarmupMode = "mser"
		p.WarmupCycles, p.MeasureCycles = 6000, 3000
	} else {
		p.StopRelPrecision = 0.1
		p.WarmupCycles, p.MeasureCycles = 1000, 6000
	}
	return p
}

// detectorPins holds every cell's decision as recorded before the
// detectors moved onto a runner-private WindowSampler; the refactor
// must reproduce each one exactly.
var detectorPins = []detectorCell{
	{"Duato", 0.0003, 100, "mser", 1000, 3000, 0, "fnv1a:717f1facbcfd0f7a"},
	{"Duato", 0.0003, 100, "stop", 1000, 1100, 1.814523972163381, "fnv1a:94c42c0d5af5119f"},
	{"Duato", 0.0003, 500, "mser", 5000, 3000, 0, "fnv1a:2c7bad7cbc60430f"},
	{"Duato", 0.0003, 500, "stop", 1000, 5000, 0.68384945559579, "fnv1a:0f12a1ba2c7f797a"},
	{"Duato", 0.015, 100, "mser", 1000, 3000, 0, "fnv1a:95dc852210ea384b"},
	{"Duato", 0.015, 100, "stop", 1000, 1400, 9.026067641503168, "fnv1a:39fc7c03795e8e4f"},
	{"Duato", 0.015, 500, "mser", 5000, 3000, 0, "fnv1a:40c4c097e865f924"},
	{"Duato", 0.015, 500, "stop", 1000, 5500, 10.02499565497537, "fnv1a:fd15efe5b7566a64"},
	{"NHop", 0.0003, 100, "mser", 1000, 3000, 0, "fnv1a:943a1717a54549c4"},
	{"NHop", 0.0003, 100, "stop", 1000, 1100, 1.814523972163381, "fnv1a:d353fa190aa561a1"},
	{"NHop", 0.0003, 500, "mser", 5000, 3000, 0, "fnv1a:3376a0a02866cad1"},
	{"NHop", 0.0003, 500, "stop", 1000, 5000, 0.606088585681114, "fnv1a:724adea8c93481d6"},
	{"NHop", 0.015, 100, "mser", 1000, 3000, 0, "fnv1a:b8a424c1e6bb787f"},
	{"NHop", 0.015, 100, "stop", 1000, 1200, 7.937482530496395, "fnv1a:5def18c002361078"},
	{"NHop", 0.015, 500, "mser", 5000, 3000, 0, "fnv1a:6a947c42bedecdb4"},
	{"NHop", 0.015, 500, "stop", 1000, 5000, 5.369202719489129, "fnv1a:83c8e659a9c6a707"},
	{"Pbc", 0.0003, 100, "mser", 1000, 3000, 0, "fnv1a:c467cc2eb6c46edd"},
	{"Pbc", 0.0003, 100, "stop", 1000, 1200, 1.7503792379557788, "fnv1a:f2d4f38809b04676"},
	{"Pbc", 0.0003, 500, "mser", 5000, 3000, 0, "fnv1a:46ff23410cab2aab"},
	{"Pbc", 0.0003, 500, "stop", 1000, 5000, 0.7310355834075529, "fnv1a:499210891094de37"},
	{"Pbc", 0.015, 100, "mser", 1000, 3000, 0, "fnv1a:bd7d554dc3e8e751"},
	{"Pbc", 0.015, 100, "stop", 1000, 3800, 31.218168054418236, "fnv1a:57b54c00f01b8ee4"},
	{"Pbc", 0.015, 500, "mser", 5000, 3000, 0, "fnv1a:8cc5028cb7d352be"},
	{"Pbc", 0.015, 500, "stop", 1000, 6000, 60.36748034359357, "fnv1a:1f3c9df6fbe22b44"},
}

// TestDetectorDecisionsPinned locks the MSER and CI-stopping decisions
// over algorithms × loads × batch widths × rules: batch boundaries, the
// empty-batch edge rules and the statistics themselves must all stay
// where they are for every cell to reproduce.
func TestDetectorDecisionsPinned(t *testing.T) {
	var got []detectorCell
	for _, alg := range []string{"Duato", "NHop", "Pbc"} {
		for _, rate := range []float64{0.0003, 0.015} {
			for _, window := range []int64{100, 500} {
				for _, mode := range []string{"mser", "stop"} {
					c := detectorCell{alg: alg, rate: rate, window: window, mode: mode}
					res, err := Run(detectorParams(c))
					if err != nil {
						t.Fatal(err)
					}
					c.effWarmup = res.Stats.EffectiveWarmup
					c.cycles = res.Stats.Cycles
					c.ciHalf = res.Stats.LatencyCIHalf
					if c.statsDigest, err = metrics.DigestJSON(res.Stats); err != nil {
						t.Fatal(err)
					}
					got = append(got, c)
				}
			}
		}
	}
	if len(got) != len(detectorPins) {
		t.Errorf("%d cells ran, %d pinned", len(got), len(detectorPins))
	}
	for i, c := range got {
		if i >= len(detectorPins) || c != detectorPins[i] {
			t.Errorf("cell %d drifted; now:\n\t%s", i, fmt.Sprintf("{%q, %v, %d, %q, %d, %d, %v, %q},",
				c.alg, c.rate, c.window, c.mode, c.effWarmup, c.cycles, c.ciHalf, c.statsDigest))
		}
	}
}

// TestTCritical95 checks the t-table's shape: critical values decrease
// with df toward the large-sample asymptote.
func TestTCritical95(t *testing.T) {
	prev := math.Inf(1)
	for _, df := range []int{1, 2, 5, 10, 30, 40, 60, 120, 500} {
		c := TCritical95(df)
		if c > prev {
			t.Errorf("t(%d) = %v not decreasing", df, c)
		}
		prev = c
	}
	if TCritical95(500) != 1.980 {
		t.Errorf("asymptotic t = %v", TCritical95(500))
	}
}
