package routing

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"wormmesh/internal/fault"
	"wormmesh/internal/topology"
)

// TestLoadsPinned pins the route-load walk end to end: a SHA-256 of
// every number a LoadMap carries must match the value recorded when the
// walk still ran once per (algorithm, fault set) and re-sorted the
// processing order once per pair. Any change to the split, the f-ring
// detour, the pass order or the src-major PairBottlenecks layout moves
// a digest.
func TestLoadsPinned(t *testing.T) {
	m10 := topology.New(10, 10)
	random := func(m topology.Topology, faults int, seed int64) func(t *testing.T) *fault.Model {
		return func(t *testing.T) *fault.Model {
			f, err := fault.Generate(m, faults, rand.New(rand.NewSource(seed)), fault.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	cases := []struct {
		name   string
		faults func(t *testing.T) *fault.Model
		want   string
	}{
		{"fault-free 10x10", func(*testing.T) *fault.Model { return fault.None(m10) },
			"b1e2aaf1f0ee1f6eb50ce1e397d01d23ed0cdbe97e17c5d838d960c5f4d2784d"},
		{"2x3 block", func(t *testing.T) *fault.Model {
			f, err := fault.New(m10, []topology.NodeID{26, 35, 45})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}, "f56f513c5cc1418a1d3f9469ef8e8688e237853ec396f46c1c5077dcb6f232f5"},
		{"boundary chain", boundaryChain, "556e442d3607b82be5d4b8ef5cb7504bba245d587ad292307581aedf374dd3cd"},
		{"10 faults seed 1", random(m10, 10, 1), "2ff88032088d5a17b52d32f224ea3d917bb48deb0892a3b0dd70f410cb383619"},
		{"10 faults seed 2", random(m10, 10, 2), "d1c8e5c191d903bd71cc34cf7039cec290b0d2ae1dc697abb113aa9a22f67792"},
		{"8x12 5 faults", random(topology.New(8, 12), 5, 1), "48ee5a5b5828b519398edd8c4da642cdc7d87bca8a6ea97e77369dc3f56c1c74"},
	}
	for _, c := range cases {
		lm, err := Loads(c.faults(t))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := loadMapDigest(lm); got != c.want {
			t.Errorf("%s: LoadMap digest %s, want %s", c.name, got, c.want)
		}
	}
}

// loadMapDigest hashes a LoadMap's counts and the bit patterns of all
// its floats, in field order.
func loadMapDigest(lm *LoadMap) string {
	h := sha256.New()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	putF := func(xs ...float64) {
		for _, x := range xs {
			put(math.Float64bits(x))
		}
	}
	put(uint64(len(lm.Loads)))
	putF(lm.Loads...)
	putF(lm.MeanHops, lm.RingHops)
	put(uint64(len(lm.PairBottlenecks)))
	putF(lm.PairBottlenecks...)
	put(uint64(lm.Healthy))
	put(uint64(lm.Pairs))
	put(uint64(lm.Channels))
	putF(lm.LostMass)
	return hex.EncodeToString(h.Sum(nil))
}
