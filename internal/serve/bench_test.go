package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"wormmesh/internal/sim"
)

// benchParams is the cell the serve benchmarks request; tiny so the
// cold-miss benchmark measures scheduling overhead plus a short run,
// not minutes of simulation.
func benchParams() sim.Params {
	p := sim.DefaultParams()
	p.Width, p.Height = 6, 6
	p.Rate = 0.002
	p.MessageLength = 20
	p.WarmupCycles = 100
	p.MeasureCycles = 400
	return p
}

func newBenchServer(b *testing.B) (*Server, *httptest.Server) {
	return newBenchServerWith(b, Config{Workers: 2})
}

func newBenchServerWith(b *testing.B, cfg Config) (*Server, *httptest.Server) {
	b.Helper()
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// warmHitLoop drives one full HTTP round trip per iteration for a
// cache-resident cell — handshake, key normalization and digest, LRU
// lookup, response write.
func warmHitLoop(b *testing.B, ts *httptest.Server) {
	b.Helper()
	p := benchParams()
	body, _ := json.Marshal(runRequest{Params: p, Wait: true})
	warm, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, warm.Body)
	warm.Body.Close()
	client := ts.Client()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkServeWarmHit is the headline number, as a traced/untraced
// pair: traced is the default configuration (every iteration opens a
// root span, records normalize and lookup children, and files them in
// the tracer's ring), untraced disables the span layer and the engine
// bridge — the baseline that prices observability. The dominant traced
// cost is not per-span work but the GC re-scanning the long-lived
// completed-span ring, so the delta is bounded by ring capacity, not
// request rate. Compare each variant like-for-like across builds.
func BenchmarkServeWarmHit(b *testing.B) {
	for _, variant := range []struct {
		name string
		cfg  Config
	}{
		{"traced", Config{Workers: 2}},
		{"untraced", Config{Workers: 2, TraceSpans: -1, EngineEvents: -1}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			_, ts := newBenchServerWith(b, variant.cfg)
			warmHitLoop(b, ts)
		})
	}
}

// BenchmarkServeWarmHitLookup isolates the cache from the HTTP stack:
// key digest + LRU Get, the path that must be allocation-free after
// the response buffer (the stored body is returned, not copied).
func BenchmarkServeWarmHitLookup(b *testing.B) {
	s, _ := newBenchServer(b)
	p := benchParams()
	key, np, err := Key(p)
	if err != nil {
		b.Fatal(err)
	}
	runner := sim.NewRunner()
	res, err := runner.Run(np)
	runner.Close()
	if err != nil {
		b.Fatal(err)
	}
	entry, err := NewEntry(key, np, res)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.cache.Put(entry); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := s.cache.Get(key); !ok {
			b.Fatal("lost the entry")
		}
	}
}

// BenchmarkServeColdMiss measures the end-to-end miss path — schedule,
// simulate on a pooled Runner, file both cache tiers, respond. Each
// iteration requests a distinct seed, so this is the per-unique-cell
// cost a parameter study pays once.
func BenchmarkServeColdMiss(b *testing.B) {
	_, ts := newBenchServer(b)
	p := benchParams()
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		body, _ := json.Marshal(runRequest{Params: p, Wait: true})
		resp, err := client.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkServeDuplicateBurst fires 64 concurrent identical requests
// at a cold key per iteration: the singleflight guarantee means one
// simulation amortized over the burst, so per-op cost approaches
// ColdMiss/64 plus coordination overhead.
func BenchmarkServeDuplicateBurst(b *testing.B) {
	_, ts := newBenchServer(b)
	p := benchParams()
	client := ts.Client()
	const burst = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(1000 + i)
		body, _ := json.Marshal(runRequest{Params: p, Wait: true})
		var wg sync.WaitGroup
		for j := 0; j < burst; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := client.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}()
		}
		wg.Wait()
	}
}

// BenchmarkServeModelAnswer measures the surrogate fast path with a
// warm model cache: the instant answer a hybrid-supported miss returns
// while the simulation queues. Target <1ms.
func BenchmarkServeModelAnswer(b *testing.B) {
	s, _ := newBenchServer(b)
	p := benchParams()
	_, np, err := Key(p)
	if err != nil {
		b.Fatal(err)
	}
	if s.modelAnswer(np) == nil { // warm the per-class model cache
		b.Fatal("no model answer for the bench cell")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.modelAnswer(np) == nil {
			b.Fatal("model answer vanished")
		}
	}
}
