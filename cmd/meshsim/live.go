package main

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"wormmesh"
	"wormmesh/internal/core"
	"wormmesh/internal/report"
	"wormmesh/internal/sim"
	"wormmesh/internal/topology"
)

// liveColumns is the width of the dashboard's sparkline strips.
const liveColumns = 60

// runLive runs p (which must carry a Sampler) on a goroutine and
// repaints a terminal dashboard on w at 10 Hz from the sampler's window
// series: sparkline strips for throughput, latency and in-flight
// messages, and a per-node heat map of the busiest outgoing link in the
// latest window (DESIGN.md §4.10). It turns on per-link telemetry so
// the windows carry link rows.
func runLive(p wormmesh.Params, w io.Writer) (wormmesh.Result, error) {
	p.Config.ChannelTelemetry = true
	f, err := sim.BuildFaults(p)
	if err != nil {
		return wormmesh.Result{}, err
	}
	var res wormmesh.Result
	done := make(chan struct{})
	go func() {
		res, err = sim.RunWithFaults(p, f)
		close(done)
	}()

	s := p.Sampler
	var thr, lat, inflight []float64
	var last core.WindowSnapshot
	next := int64(0)
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-ticker.C:
		}
		healthy := s.Meta().HealthyNodes
		for _, win := range s.Since(next) {
			thr = append(thr, win.Throughput(healthy))
			l := win.AvgLatency
			if l == 0 {
				l = math.NaN() // no delivery: leave a gap, not a dip
			}
			lat = append(lat, l)
			inflight = append(inflight, float64(win.InFlight))
			last, next = win, win.Seq+1
		}

		var b strings.Builder
		b.WriteString("\x1b[H\x1b[2J") // cursor home, clear screen
		fmt.Fprintf(&b, "meshsim -live: %s, rate %g, cycle %d of %d\n\n",
			p.Algorithm, p.Rate, last.End, p.WarmupCycles+p.MeasureCycles)
		fmt.Fprintf(&b, "throughput %s %.4f flits/node/cycle\n", report.Sparkline(thr, liveColumns), last.Throughput(healthy))
		fmt.Fprintf(&b, "latency    %s %.0f cycles\n", report.Sparkline(lat, liveColumns), last.AvgLatency)
		fmt.Fprintf(&b, "in flight  %s %d messages\n", report.Sparkline(inflight, liveColumns), last.InFlight)
		if last.LinkBusy != nil {
			busiest := make([]float64, p.Width*p.Height)
			for id := range busiest {
				if f.IsFaulty(topology.NodeID(id)) {
					busiest[id] = math.NaN()
					continue
				}
				for _, v := range last.LinkBusy[id*topology.NumDirs : (id+1)*topology.NumDirs] {
					busiest[id] = math.Max(busiest[id], float64(v)/255)
				}
			}
			wraps := p.Topology == "torus"
			hm := report.Heatmap{
				Title: "\nbusiest outgoing link per node (busy fraction, latest window):",
				Width: p.Width, Height: p.Height, Values: busiest,
				WrapX: wraps, WrapY: wraps, Legend: true,
			}
			hm.Write(&b) // a strings.Builder never fails
		}
		if _, werr := io.WriteString(w, b.String()); werr != nil {
			<-done
			return res, werr
		}
	}
	return res, err
}
