package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wormmesh/internal/core"
	"wormmesh/internal/fault"
	"wormmesh/internal/routing"
	"wormmesh/internal/serve"
	"wormmesh/internal/sim"
	"wormmesh/internal/sweep"
	"wormmesh/internal/trace"
)

// layerProbes times the public calls of the layers an offline workload
// sits on, at that workload's own configuration (so routing numbers on
// fig4_faults are the 10 %-fault ones, on mesh32_single the 32x32 ones).
func layerProbes(cfg config, res *results, root *trace.Span, sample []sweep.Point, batch []sweep.Outcome) error {
	// fault + routing construction, and route computation for every
	// healthy ordered pair at the source node.
	sp := root.Child("probe fault+routing")
	var genUS, newUS []float64
	var candNS time.Duration
	var candCalls, candTotal int64
	models := map[string]*fault.Model{}
	routed := map[string]bool{} // (algorithm, fault model) pairs already walked
	for _, pt := range sample {
		p := pt.Params
		mkey := fmt.Sprintf("%dx%d/%d/%d", p.Width, p.Height, p.Faults, p.FaultSeed)
		f := models[mkey]
		if f == nil {
			t0 := time.Now()
			var err error
			if f, err = sim.BuildFaults(p); err != nil {
				return err
			}
			if p.Faults > 0 {
				genUS = append(genUS, float64(time.Since(t0).Nanoseconds())/1e3)
			}
			models[mkey] = f
		}
		t0 := time.Now()
		alg, err := routing.New(p.Algorithm, f, sim.DefaultEngineConfig().NumVCs)
		if err != nil {
			return err
		}
		newUS = append(newUS, float64(time.Since(t0).Nanoseconds())/1e3)
		if routed[p.Algorithm+"/"+mkey] {
			continue
		}
		routed[p.Algorithm+"/"+mkey] = true

		healthy := f.HealthyNodes()
		msgs := make([]*core.Message, 0, len(healthy))
		var set core.CandidateSet
		for _, src := range healthy {
			msgs = msgs[:0]
			for _, dst := range healthy {
				if dst != src {
					msgs = append(msgs, core.NewMessage(1, src, dst, p.MessageLength))
				}
			}
			t0 := time.Now()
			for _, m := range msgs {
				alg.InitMessage(m)
				set.Reset()
				alg.Candidates(m, src, &set)
				candTotal += int64(set.Total())
			}
			candNS += time.Since(t0)
			candCalls += int64(len(msgs))
		}
	}
	sp.End()
	res.emit("fault.generate_us", mean(genUS), len(genUS))
	res.emit("routing.new_us", mean(newUS), len(newUS))
	res.emit("routing.candidates_ns", float64(candNS.Nanoseconds())/float64(candCalls), int(candCalls))
	res.emit("routing.candidates_per_call", float64(candTotal)/float64(candCalls), int(candCalls))

	sp = root.Child("probe sweep.Aggregate")
	const aggReps = 50
	t0 := time.Now()
	for i := 0; i < aggReps; i++ {
		sweep.Aggregate(batch)
	}
	res.emit("sweep.aggregate_us", float64(time.Since(t0).Nanoseconds())/1e3/aggReps, aggReps)
	sp.End()

	switch cfg.workload {
	case "fig2_light":
		sp = root.Child("probe analytic")
		err := analyticProbes(res, sample[0].Params, batch)
		sp.End()
		return err
	case "mesh32_single":
		// The same 32x32 rate-0.0005 cell on the parallel engine with
		// one and two workers: the pair that decides whether intra-run
		// sharding earns its keep.
		for _, w := range []int{1, 2} {
			sp = root.Child(fmt.Sprintf("probe parallel engine w=%d", w))
			p := sample[1].Params
			p.EngineWorkers = w
			r := sim.NewRunner()
			out, err := r.Run(p)
			r.Close()
			sp.End()
			if err != nil {
				return err
			}
			cycles := p.WarmupCycles + p.MeasureCycles
			res.emit(fmt.Sprintf("core.step_parallel_w%d_ns", w), float64(out.Elapsed.Nanoseconds())/float64(cycles), int(cycles))
		}
	}
	return nil
}

// analyticProbes times the surrogate for p's configuration class and
// states its accuracy against the simulated cells it models: the error
// figure that belongs beside any surrogate speed-up.
func analyticProbes(res *results, p sim.Params, simulated []sweep.Outcome) error {
	const builds = 3
	t0 := time.Now()
	for i := 0; i < builds; i++ {
		if _, err := sweep.Surrogate(p); err != nil {
			return err
		}
	}
	res.emit("analytic.build_ms", ms(time.Since(t0))/builds, builds)

	model, err := sweep.Surrogate(p)
	if err != nil {
		return err
	}
	const predicts = 2000
	t0 = time.Now()
	for i := 0; i < predicts; i++ {
		_, _ = model.Predict(p.Rate) // saturation is a valid answer; only the time matters here
	}
	res.emit("analytic.predict_ns", float64(time.Since(t0).Nanoseconds())/predicts, predicts)

	var errs []float64
	for _, o := range simulated {
		if o.Err != nil || sweep.HybridSupported(o.Point.Params) != nil {
			continue
		}
		m, err := sweep.Surrogate(o.Point.Params)
		if err != nil {
			continue
		}
		pred, err := m.Predict(o.Point.Params.Rate)
		simLat := o.Result.Stats.AvgLatency()
		if err != nil || math.IsNaN(simLat) || simLat <= 0 {
			continue // beyond the model's stable region, or nothing measured
		}
		errs = append(errs, 100*math.Abs(pred.Latency-simLat)/simLat)
	}
	if len(errs) > 0 {
		res.emit("analytic.stable_err_pct", median(errs), len(errs))
	}
	return nil
}

// serveProbes times the service layer's public calls in this process:
// key normalisation, both cache tiers, a store write, and a warm hit
// through Server.Handler — the itemisation of a hit that the real
// process's hit latency is made of.
func serveProbes(cfg config, res *results, root *trace.Span, p sim.Params) error {
	sp := root.Child("probe serve in-process")
	defer sp.End()
	dir, err := os.MkdirTemp(cfg.scratch, "probe-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	const keyReps = 2000
	allocs, dur := measure(keyReps, func() { _, _, _ = serve.Key(p) })
	res.emit("serve.key_us", dur/1e3, keyReps)
	res.emit("serve.key_allocs", allocs, keyReps)

	key, np, err := serve.Key(p)
	if err != nil {
		return err
	}
	out, err := sim.Run(np)
	if err != nil {
		return err
	}
	entry, err := serve.NewEntry(key, np, out)
	if err != nil {
		return err
	}

	// Memory tier: a resident key. Disk tier: a one-entry LRU over two
	// keys asked for alternately, so every lookup reads the store.
	store, err := serve.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	cache := serve.NewCache(256, store, nil)
	if _, err := cache.Put(entry); err != nil {
		return err
	}
	const memReps = 20000
	_, dur = measure(memReps, func() { cache.GetTagged(key) })
	res.emit("serve.lookup_mem_ns", dur, memReps)

	other := *entry
	other.Key = key + "-b"
	tiny := serve.NewCache(1, store, nil)
	if _, err := tiny.Put(&other); err != nil {
		return err
	}
	keys := [2]string{key, other.Key}
	const diskReps = 500
	i := 0
	_, dur = measure(diskReps, func() { tiny.GetTagged(keys[i&1]); i++ })
	res.emit("serve.lookup_disk_us", dur/1e3, diskReps)

	const putReps = 200
	puts := make([]serve.Entry, putReps)
	for j := range puts {
		puts[j] = *entry
		puts[j].Key = fmt.Sprintf("%s-%d", key, j)
	}
	i = 0
	_, dur = measure(putReps, func() { _, _ = cache.Put(&puts[i]); i++ })
	res.emit("serve.put_us", dur/1e3, putReps)

	srv, err := serve.New(serve.Config{Dir: filepath.Join(dir, "srv"), Workers: 1, TraceSpans: -1})
	if err != nil {
		return err
	}
	defer srv.Close()
	body := requestBody(p)
	h := srv.Handler()
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run?wait=1", bytes.NewReader(body)))
		return rec
	}
	if rec := post(); rec.Code != http.StatusOK {
		return fmt.Errorf("in-process warm-up request: status %d: %s", rec.Code, rec.Body.String())
	}
	const hitReps = 2000
	allocs, dur = measure(hitReps, func() { post() })
	res.emit("serve.handler_hit_us", dur/1e3, hitReps)
	res.emit("serve.handler_hit_allocs", allocs, hitReps)
	return nil
}

// measure runs fn n times and returns mean heap allocations and mean
// nanoseconds per call.
func measure(n int, fn func()) (allocs, ns float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(d.Nanoseconds()) / float64(n)
}
