package experiments

import (
	"math/rand"

	"wormmesh/internal/core"
	"wormmesh/internal/report"
	"wormmesh/internal/routing"
	"wormmesh/internal/sim"
	"wormmesh/internal/topology"
)

// Adaptivity quantifies each algorithm's routing freedom: the average
// number of candidate channels (and distinct directions) its headers
// are offered per routing decision — the structural quantity behind
// the paper's two-category split. It samples `samples` random (src,
// dst, progress) states per algorithm on the fault pattern implied by
// the options' seed and faultPercent, replaying each message's walk and
// recording the candidate sets along it. One row per algorithm.
func Adaptivity(o Options, algorithms []string, faultPercent, samples int) (*report.Table, error) {
	if algorithms == nil {
		algorithms = routing.AlgorithmNames
	}
	p := o.baseParams()
	p.Faults = o.Width * o.Height * faultPercent / 100
	f, err := sim.BuildFaults(p)
	if err != nil {
		return nil, err
	}
	healthy := f.HealthyNodes()
	mesh := f.Topo
	t := report.NewTable("algorithm", "mean_channels", "mean_directions")
	for _, algName := range algorithms {
		alg, err := routing.New(algName, f, p.Config.NumVCs)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(o.Seed))
		var cands core.CandidateSet
		decisions, chanSum, dirSum := 0, 0, 0
		for s := 0; s < samples; s++ {
			src := healthy[rng.Intn(len(healthy))]
			dst := healthy[rng.Intn(len(healthy))]
			if src == dst {
				continue
			}
			m := core.NewMessage(int64(s+1), src, dst, 1)
			alg.InitMessage(m)
			cur := src
			for steps := 0; cur != dst && steps < 8*mesh.Diameter(); steps++ {
				cands.Reset()
				alg.Candidates(m, cur, &cands)
				// Record the winning tier's freedom.
				var tier []core.Channel
				for t := 0; t < core.MaxTiers; t++ {
					if len(cands.Tier(t)) > 0 {
						tier = cands.Tier(t)
						break
					}
				}
				if len(tier) == 0 {
					break
				}
				decisions++
				chanSum += len(tier)
				dirs := map[topology.Direction]bool{}
				for _, ch := range tier {
					dirs[ch.Dir] = true
				}
				dirSum += len(dirs)
				ch := tier[rng.Intn(len(tier))]
				alg.Advance(m, cur, ch)
				cur = mesh.NeighborID(cur, ch.Dir)
			}
		}
		var channels, dirs float64
		if decisions > 0 {
			channels = float64(chanSum) / float64(decisions)
			dirs = float64(dirSum) / float64(decisions)
		}
		t.AddRow(algName, channels, dirs)
	}
	return t, nil
}
