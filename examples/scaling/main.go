// Scaling studies how the comparative results extend beyond the
// paper's 10×10 mesh: it runs a subset of algorithms on growing meshes
// with a proportional number of faults.
package main

import (
	"fmt"
	"log"
	"os"

	"wormmesh"
	"wormmesh/internal/report"
)

func main() {
	algorithms := []string{"NHop", "Duato-Nbc", "Minimal-Adaptive"}
	t := report.NewTable("mesh", "algorithm", "faults", "latency", "throughput", "detour", "wall")
	for _, size := range []int{10, 16, 20} {
		for _, alg := range algorithms {
			p := wormmesh.DefaultParams()
			p.Width, p.Height = size, size
			p.Algorithm = alg
			p.Rate = 0.001
			p.Faults = size * size / 20 // 5% of the mesh
			// Hop-based class ladders grow with the diameter: give
			// every algorithm the channels it needs on big meshes.
			if min, err := wormmesh.MinVCs(alg, wormmesh.NewMesh(size, size)); err == nil && min > p.Config.NumVCs {
				p.Config.NumVCs = min
			}
			p.WarmupCycles = 2000
			p.MeasureCycles = 6000
			res, err := wormmesh.Run(p)
			if err != nil {
				log.Fatal(err)
			}
			t.AddRow(fmt.Sprintf("%dx%d", size, size), alg, res.FaultCount,
				res.Stats.AvgLatency(), res.Stats.Throughput(), res.Stats.AvgDetour(),
				res.Elapsed.Round(1e7).String())
		}
	}
	if err := t.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
