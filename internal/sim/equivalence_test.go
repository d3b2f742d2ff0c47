package sim

import (
	"testing"

	"wormmesh/internal/fault"
	"wormmesh/internal/metrics"
	"wormmesh/internal/routing"
	"wormmesh/internal/topology"
)

// TestMemoizedRoutingMatchesScanning pins, for EVERY registered
// algorithm in three fault regimes, the Stats digest that the
// table-driven (memoized) Boppana–Chalasani routing produced before the
// scanning code became the only path. The scan must reproduce them bit
// for bit: the candidate order feeds the engine's RNG tie-breaking, so
// any drift in canProgress, the orientation choice or the ring-channel
// order moves these digests. The regimes are no faults, an interior
// block (closed f-rings, both orientations viable), a boundary block
// (an open f-chain, where orientation scans hit chain ends and
// traversals reverse) and 10 random faults, the only one of the four
// whose messages reach the per-class orientation default. The name
// says where the digests came from: the memoized path recorded them,
// and the scanning path must match them.
func TestMemoizedRoutingMatchesScanning(t *testing.T) {
	mesh := topology.New(10, 10)
	scenarios := []struct {
		name    string
		pattern string // canned fault pattern; "" = none
		faults  int    // random faults drawn with FaultSeed 3
		digests map[string]string
	}{
		{"fault-free", "", 0, map[string]string{
			"PHop":             "fnv1a:937728c5a5e06410",
			"NHop":             "fnv1a:20c1655a50fc95d2",
			"Pbc":              "fnv1a:bf815fea2b113306",
			"Nbc":              "fnv1a:4c8425b1cf66853b",
			"Duato":            "fnv1a:fc685c6bc22cbe68",
			"Duato-Pbc":        "fnv1a:bf28ef1ff0a50cf4",
			"Duato-Nbc":        "fnv1a:027eac638432ac19",
			"Minimal-Adaptive": "fnv1a:6d2e7e8103ab2dfc",
			"Fully-Adaptive":   "fnv1a:6d2e7e8103ab2dfc",
			"Boura-Adaptive":   "fnv1a:78a7545a188ba31d",
			"Boura-FT":         "fnv1a:4fbbbb14f34360d0",
		}},
		{"interior-block", "center-block", 0, map[string]string{
			"PHop":             "fnv1a:8a871810e4e474f6",
			"NHop":             "fnv1a:90044ba134a04571",
			"Pbc":              "fnv1a:52a9d8532875ec5a",
			"Nbc":              "fnv1a:9cb5c212da21b5a0",
			"Duato":            "fnv1a:e55acc358f4cf53d",
			"Duato-Pbc":        "fnv1a:04e72b7ffbf1cd21",
			"Duato-Nbc":        "fnv1a:865b853d5aae2bc8",
			"Minimal-Adaptive": "fnv1a:daae12e5437470e5",
			"Fully-Adaptive":   "fnv1a:daae12e5437470e5",
			"Boura-Adaptive":   "fnv1a:a99985199950f01b",
			"Boura-FT":         "fnv1a:730a6e95499bcf0a",
		}},
		{"boundary-chain", "boundary-chain", 0, map[string]string{
			"PHop":             "fnv1a:fb78deea64e42b7a",
			"NHop":             "fnv1a:02230b8e9e7435d9",
			"Pbc":              "fnv1a:947333b3bf2747be",
			"Nbc":              "fnv1a:746590934f6ca422",
			"Duato":            "fnv1a:8814507e087e0854",
			"Duato-Pbc":        "fnv1a:9ef880dbd36b6259",
			"Duato-Nbc":        "fnv1a:d354889e8eb06c21",
			"Minimal-Adaptive": "fnv1a:08a093f28bd21e1c",
			"Fully-Adaptive":   "fnv1a:08a093f28bd21e1c",
			"Boura-Adaptive":   "fnv1a:cbe56b2cdb2ffab4",
			"Boura-FT":         "fnv1a:1ec35e0a4f73cb5c",
		}},
		{"random-faults", "", 10, map[string]string{
			"PHop":             "fnv1a:03abbbd82048126e",
			"NHop":             "fnv1a:7e8c6706adcf6e37",
			"Pbc":              "fnv1a:ffa67eba03ad581d",
			"Nbc":              "fnv1a:42ca777db0800238",
			"Duato":            "fnv1a:69b22f11f07a184b",
			"Duato-Pbc":        "fnv1a:99f45d589dd03a35",
			"Duato-Nbc":        "fnv1a:af8a7ba4f1c5baef",
			"Minimal-Adaptive": "fnv1a:1a87634ec28a14ba",
			"Fully-Adaptive":   "fnv1a:1a87634ec28a14ba",
			"Boura-Adaptive":   "fnv1a:f7594b641139cfe6",
			"Boura-FT":         "fnv1a:6ff38a202c401ed6",
		}},
	}
	for _, sc := range scenarios {
		var nodes []topology.NodeID
		if sc.pattern != "" {
			var err error
			nodes, err = fault.NamedPattern(sc.pattern, mesh)
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, alg := range routing.AlgorithmNames {
			t.Run(sc.name+"/"+alg, func(t *testing.T) {
				want, ok := sc.digests[alg]
				if !ok {
					t.Fatalf("no pinned digest for %s", alg)
				}
				p := DefaultParams()
				p.Algorithm = alg
				p.Rate = 0.003
				p.MessageLength = 16
				p.WarmupCycles = 200
				p.MeasureCycles = 1000
				p.Seed = 77
				if nodes != nil {
					p.FaultNodes = nodes
				}
				p.Faults, p.FaultSeed = sc.faults, 3
				res, err := Run(p)
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.Delivered == 0 {
					t.Fatal("scenario delivered nothing; the pin would be vacuous")
				}
				got, err := metrics.DigestJSON(res.Stats)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("Stats digest %s, want %s:\n  %+v", got, want, res.Stats)
				}
			})
		}
	}
}
