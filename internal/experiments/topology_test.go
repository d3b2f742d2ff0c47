package experiments

import (
	"testing"
)

func TestTopologyComparePlumbing(t *testing.T) {
	o := tiny()
	res, err := TopologyCompare(o, []string{"Duato", "Minimal-Adaptive"})
	if err != nil {
		t.Fatal(err)
	}
	// Minimal-Adaptive is mesh-only and must be filtered out, leaving
	// Duato alone: 2 kinds x 2 fault counts = 4 rows.
	algorithms := map[any]bool{}
	for _, row := range res.Rows {
		algorithms[row[0]] = true
	}
	if len(algorithms) != 1 || !algorithms["Duato"] {
		t.Fatalf("algorithms = %v, want [Duato]", algorithms)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	kinds := map[any]int{}
	latency, norm := res.Floats("latency"), res.Floats("normalized")
	for i, row := range res.Rows {
		kinds[row[1]]++
		if latency[i] <= 0 {
			t.Errorf("%s/%s: nonpositive latency %v", row[0], row[1], latency[i])
		}
		if norm[i] <= 0 || norm[i] > 1 {
			t.Errorf("%s/%s: normalized throughput %v outside (0,1]", row[0], row[1], norm[i])
		}
	}
	if kinds["mesh"] != 2 || kinds["torus"] != 2 {
		t.Errorf("kind split = %v, want 2 mesh + 2 torus", kinds)
	}
	// Same offered load on the same dimensions: the torus's doubled
	// bisection means its normalized throughput must come out below the
	// mesh's on the fault-free runs.
	meshNorm := res.Float("normalized", "topology", "mesh", "faults", 0)
	torusNorm := res.Float("normalized", "topology", "torus", "faults", 0)
	if torusNorm >= meshNorm {
		t.Errorf("fault-free normalized throughput torus %v >= mesh %v", torusNorm, meshNorm)
	}

	if _, err := TopologyCompare(o, []string{"Minimal-Adaptive"}); err == nil {
		t.Error("all-mesh-only selection accepted")
	}
}
