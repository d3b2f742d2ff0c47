package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"wormmesh/internal/metrics"
	"wormmesh/internal/routing"
	"wormmesh/internal/sim"
	"wormmesh/internal/sweep"
)

// faultedParams is a 10×10 cell with five random faults: one surrogate
// class for every algorithm and rate.
func faultedParams(alg string, rate float64) sim.Params {
	p := quickParams()
	p.Width, p.Height = 10, 10
	p.Faults = 5
	p.FaultSeed = 1
	p.Algorithm = alg
	p.Rate = rate
	return p
}

// normalized is p as the handlers see it after Key.
func normalized(t *testing.T, p sim.Params) sim.Params {
	t.Helper()
	_, np, err := Key(p)
	if err != nil {
		t.Fatal(err)
	}
	return np
}

// modelJSON is the model answer the server gives the normalized cell
// np, marshalled as it goes on the wire, or nil when it gives none.
func modelJSON(t *testing.T, s *Server, np sim.Params) []byte {
	t.Helper()
	ans := s.modelAnswer(np)
	if ans == nil {
		return nil
	}
	b, err := json.Marshal(ans)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestModelBuildOncePerClass: concurrent first misses of one faulted
// class, spread over four algorithms and two rates, build the surrogate
// once, and every algorithm gets the same model answer per rate.
func TestModelBuildOncePerClass(t *testing.T) {
	reg := metrics.NewRegistry()
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16, Registry: reg})
	// Hold the simulations: only the provisional answers matter here.
	release := make(chan struct{})
	inner := s.sched.run
	s.sched.run = func(r *sim.Runner, p sim.Params) (sim.Result, error) {
		<-release
		return inner(r, p)
	}
	t.Cleanup(func() { close(release) })

	algs := []string{"Duato", "Nbc", "PHop", "Minimal-Adaptive"}
	rates := []float64{0.001, 0.002}
	models := make([][]byte, len(algs)*len(rates))
	var wg sync.WaitGroup
	for i := range models {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := faultedParams(algs[i/len(rates)], rates[i%len(rates)])
			body, err := json.Marshal(runRequest{Params: p})
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var acc struct {
				Model json.RawMessage `json:"model"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("%s@%g: status %d", p.Algorithm, p.Rate, resp.StatusCode)
			}
			models[i] = acc.Model
		}(i)
	}
	wg.Wait()
	if n := s.met.ModelBuilds.Get(); n != 1 {
		t.Errorf("%d concurrent first misses of one class built %d surrogates, want 1", len(models), n)
	}
	for i, m := range models {
		if len(m) == 0 || string(m) == "null" {
			t.Fatalf("cell %d got no model answer", i)
		}
		if ref := models[i%len(rates)]; !bytes.Equal(m, ref) {
			t.Errorf("%s@%g: model %s, want %s as for %s", algs[i/len(rates)], rates[i%len(rates)], m, ref, algs[0])
		}
	}
}

// TestModelAnswerPerAlgorithm: sharing the class build changes no
// answer. Each BC algorithm's model answer from a server warmed by the
// others is byte-identical to a fresh server's that saw only it.
func TestModelAnswerPerAlgorithm(t *testing.T) {
	shared, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	for _, alg := range routing.AlgorithmNames {
		if !routing.LoadsSupported(alg) {
			continue
		}
		np := normalized(t, faultedParams(alg, 0.002))
		got := modelJSON(t, shared, np)
		fresh, err := New(Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := modelJSON(t, fresh, np)
		fresh.Close()
		if got == nil || !bytes.Equal(got, want) {
			t.Errorf("%s: shared-class answer %s, fresh %s", alg, got, want)
		}
	}
}

// TestModelAnswerAlgorithmGates: the class build is shared, the
// per-algorithm gates are not. Boura-FT on a faulted mesh gets no
// answer, nor does PHop on a faulted 10×10 with fewer VCs than its 23,
// before or after a Duato request warmed the same class. Key already
// refuses such a PHop request, so the cell is built by hand. Fault-free,
// PHop's short budget is no bar: the cut model never builds it.
func TestModelAnswerAlgorithmGates(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if m := modelJSON(t, s, normalized(t, faultedParams("Boura-FT", 0.002))); m != nil {
		t.Errorf("faulted Boura-FT got a model answer: %s", m)
	}
	duatoP := faultedParams("Duato", 0.002)
	duatoP.Config.NumVCs = 22
	duato := normalized(t, duatoP)
	phop := duato
	phop.Algorithm = "PHop"
	if a, b := classOf(t, phop), classOf(t, duato); a != b {
		t.Fatalf("PHop and Duato cells in different classes %s, %s", a, b)
	}
	if m := modelJSON(t, s, phop); m != nil {
		t.Errorf("PHop with 22 VCs on a cold class got a model answer: %s", m)
	}
	if m := modelJSON(t, s, duato); m == nil {
		t.Fatal("Duato with 22 VCs got no model answer")
	}
	if m := modelJSON(t, s, phop); m != nil {
		t.Errorf("PHop with 22 VCs on a warm class got a model answer: %s", m)
	}
	phop.Faults = 0
	if m := modelJSON(t, s, phop); m == nil {
		t.Error("fault-free PHop with 22 VCs got no model answer")
	}
}

func classOf(t *testing.T, p sim.Params) string {
	t.Helper()
	c, err := sweep.SurrogateClass(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
