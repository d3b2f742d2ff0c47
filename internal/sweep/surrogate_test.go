package sweep

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"wormmesh/internal/analytic"
	"wormmesh/internal/routing"
)

// TestSurrogateGates: the algorithm-free build keeps the per-algorithm
// refusals a faulted cell had when the walk ran through routing.New —
// Boura-FT is unsupported, and a VC budget below the algorithm's
// minimum is refused — while fault-free cells are answered as before.
func TestSurrogateGates(t *testing.T) {
	var memo Surrogates
	bouraFT := hybridBase("Boura-FT", 24, 2)
	if _, err := Surrogate(bouraFT); !errors.Is(err, analytic.ErrUnsupported) {
		t.Errorf("faulted Boura-FT: err = %v, want ErrUnsupported", err)
	}
	if _, _, err := memo.Get(bouraFT); !errors.Is(err, analytic.ErrUnsupported) {
		t.Errorf("faulted Boura-FT from the memo: err = %v, want ErrUnsupported", err)
	}
	// PHop needs diameter+1+4 = 19 VCs on 8×8; Duato needs 7.
	phop := hybridBase("PHop", 18, 2)
	duato := hybridBase("Duato", 18, 2)
	if _, err := Surrogate(phop); err == nil {
		t.Error("faulted PHop with 18 VCs: surrogate built")
	}
	if _, _, err := memo.Get(duato); err != nil {
		t.Fatalf("faulted Duato with 18 VCs: %v", err)
	}
	if _, _, err := memo.Get(phop); err == nil {
		t.Error("faulted PHop with 18 VCs on a class Duato warmed: surrogate served")
	}
	phop.Faults = 0
	if _, _, err := memo.Get(phop); err != nil {
		t.Errorf("fault-free PHop with 18 VCs: %v", err)
	}
}

// TestSurrogatesShareClassBuild: concurrent requests for one class,
// across algorithms and rates, build once, and what they get equals an
// unshared Surrogate build for each cell.
func TestSurrogatesShareClassBuild(t *testing.T) {
	var builds atomic.Int64
	memo := Surrogates{OnBuild: func() { builds.Add(1) }}
	var cells []string
	for _, alg := range routing.AlgorithmNames {
		if routing.LoadsSupported(alg) {
			cells = append(cells, alg)
		}
	}
	type got struct {
		model analytic.Model
		knee  float64
	}
	out := make([]got, 2*len(cells))
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := hybridBase(cells[i/2], 24, 3)
			p.Rate = 0.001 * float64(1+i%2)
			mo, knee, err := memo.Get(p)
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = got{mo, knee}
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d requests of one class built %d surrogates, want 1", len(out), n)
	}
	for i, g := range out {
		want, err := Surrogate(hybridBase(cells[i/2], 24, 3))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.model, want) || g.knee != want.SaturationRate() {
			t.Errorf("%s: shared surrogate differs from its own build", cells[i/2])
		}
	}
}
