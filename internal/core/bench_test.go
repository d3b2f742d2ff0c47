package core

import (
	"math/rand"
	"testing"

	"wormmesh/internal/topology"
	"wormmesh/internal/trace"
)

// BenchmarkStepIdle measures the per-cycle cost of an empty network
// (the sweep harness spends warm-up tails here at low loads). The
// worklist variant is the production path — a quiescent cycle
// short-circuits on the empty dirty set — while fullscan pins
// core.DebugFullScan to measure the pre-worklist reference engine
// that still walks every router.
func BenchmarkStepIdle(b *testing.B) {
	for _, variant := range []struct {
		name     string
		fullScan bool
	}{{"worklist", false}, {"fullscan", true}} {
		b.Run(variant.name, func(b *testing.B) {
			mesh := topology.New(10, 10)
			cfg := DefaultConfig()
			n, err := NewNetwork(mesh, nil, xyAlg{mesh: mesh, vcs: cfg.NumVCs}, cfg, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			DebugFullScan = variant.fullScan
			defer func() { DebugFullScan = false }()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Step()
			}
		})
	}
}

// BenchmarkStepLowLoad measures the regime the worklist is for: a
// trickle of traffic on a 10×10 mesh, so most routers are idle on any
// given cycle but the network is never fully quiescent for long. The
// worklist walks only the handful of busy routers; the fullscan
// reference walks all 100 every cycle.
func BenchmarkStepLowLoad(b *testing.B) {
	for _, variant := range []struct {
		name     string
		fullScan bool
	}{{"worklist", false}, {"fullscan", true}} {
		b.Run(variant.name, func(b *testing.B) {
			mesh := topology.New(10, 10)
			cfg := DefaultConfig()
			cfg.MaxSourceQueue = 4
			n, err := NewNetwork(mesh, nil, xyAlg{mesh: mesh, vcs: cfg.NumVCs}, cfg, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			id := int64(0)
			DebugFullScan = variant.fullScan
			defer func() { DebugFullScan = false }()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// ~0.02 messages per cycle network-wide: the paper's
				// low-load region, where most cycles touch 0–2 messages.
				if rng.Float64() < 0.02 {
					src := topology.NodeID(rng.Intn(mesh.NodeCount()))
					dst := topology.NodeID(rng.Intn(mesh.NodeCount()))
					if src != dst {
						id++
						m := n.AcquireMessage(id, src, dst, 16)
						m.GenTime = n.Cycle()
						n.Offer(m)
					}
				}
				n.Step()
			}
		})
	}
}

// BenchmarkStepLoaded measures the per-cycle cost with live traffic.
// Messages come from the network's arena, so a steady-state cycle
// performs zero heap allocations (asserted by TestStepLoadedAllocs).
// The flightrec variant runs the same workload with a saturated
// 4096-event flight recorder ring installed, pricing the black-box
// observation the sweeps can now leave on; the telemetry variant runs
// with Config.ChannelTelemetry, pricing the per-link congestion
// counters (each budget is <= 10% over plain, still at zero allocs/op
// — compare variants with go test -bench). The spans variant prices the
// serve layer's engine bridge: the same recorder ring, decoded into a
// trace span every ring-length of cycles — the amortized cost of the
// span-scoped engine view /traces serves. The sampler variant prices
// the time-resolved WindowSampler ticked every cycle (512-cycle
// windows), the observer the live SSE stream and -live dashboard ride
// on — same ≤10% budget over plain.
func BenchmarkStepLoaded(b *testing.B) {
	for _, variant := range []struct {
		name      string
		flightRe  bool
		telemetry bool
		spans     bool
		sampler   bool
	}{
		{"plain", false, false, false, false},
		{"flightrec", true, false, false, false},
		{"telemetry", false, true, false, false},
		{"spans", true, false, true, false},
		{"sampler", false, false, false, true},
	} {
		b.Run(variant.name, func(b *testing.B) {
			mesh := topology.New(10, 10)
			cfg := DefaultConfig()
			cfg.MaxSourceQueue = 4
			cfg.ChannelTelemetry = variant.telemetry
			n, err := NewNetwork(mesh, nil, xyAlg{mesh: mesh, vcs: cfg.NumVCs}, cfg, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			var rec *FlightRecorder
			if variant.flightRe {
				rec = NewFlightRecorder(4096)
				n.SetTracer(rec)
			}
			var tracer *trace.Tracer
			if variant.spans {
				tracer = trace.New(64)
			}
			var sampler *WindowSampler
			if variant.sampler {
				sampler = NewWindowSampler(512, 256)
				sampler.Start(n, 0)
			}
			rng := rand.New(rand.NewSource(2))
			id := int64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// ~0.3 messages per cycle network-wide: a busy mesh.
				if rng.Float64() < 0.3 {
					src := topology.NodeID(rng.Intn(mesh.NodeCount()))
					dst := topology.NodeID(rng.Intn(mesh.NodeCount()))
					if src != dst {
						id++
						m := n.AcquireMessage(id, src, dst, 16)
						m.GenTime = n.Cycle()
						n.Offer(m)
					}
				}
				n.Step()
				if sampler != nil {
					sampler.Tick(n)
				}
				if variant.spans && i%4096 == 4095 {
					span := tracer.Start("engine.window", trace.Context{})
					span.AttachEngine(rec.Snapshot())
					span.End()
				}
			}
			b.ReportMetric(float64(n.Snapshot().DeliveredFlits)/float64(b.N), "flits/cycle")
		})
	}
}

// BenchmarkStepLoadedTorus is BenchmarkStepLoaded's plain workload on
// the 10×10 torus backend with the dateline XY discipline: the cost of
// wrap links and wrap-class computation on the loaded per-cycle path
// (same 0 allocs/op budget as the rest of the set).
func BenchmarkStepLoadedTorus(b *testing.B) {
	var torus topology.Topology = topology.NewTorus(10, 10)
	cfg := DefaultConfig()
	cfg.MaxSourceQueue = 4
	n, err := NewNetwork(torus, nil, torusXYAlg{topo: torus, vcs: cfg.NumVCs}, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	id := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// ~0.3 messages per cycle network-wide: a busy torus.
		if rng.Float64() < 0.3 {
			src := topology.NodeID(rng.Intn(torus.NodeCount()))
			dst := topology.NodeID(rng.Intn(torus.NodeCount()))
			if src != dst {
				id++
				m := n.AcquireMessage(id, src, dst, 16)
				m.GenTime = n.Cycle()
				n.Offer(m)
			}
		}
		n.Step()
	}
	b.ReportMetric(float64(n.Snapshot().DeliveredFlits)/float64(b.N), "flits/cycle")
}

// BenchmarkValidate measures the invariant checker used by the tests.
func BenchmarkValidate(b *testing.B) {
	mesh := topology.New(10, 10)
	cfg := DefaultConfig()
	n, err := NewNetwork(mesh, nil, xyAlg{mesh: mesh, vcs: cfg.NumVCs}, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		m := NewMessage(int64(i+1), topology.NodeID(i), topology.NodeID(99-i), 16)
		m.GenTime = 0
		n.Offer(m)
	}
	for i := 0; i < 20; i++ {
		n.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
