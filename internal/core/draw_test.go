package core

import (
	"math/rand"
	"testing"
)

// TestIntnMatchesMathRand checks the engine's Intn against math/rand's
// on the same stream: equal values and equal source consumption, for
// powers of two (the masking path), the small arities the engine draws
// over, and large non-powers where Int31n's rejection loop can run.
func TestIntnMatchesMathRand(t *testing.T) {
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8, 24, 96, 1000, 1<<30 + 1, 1<<31 - 1}
	for seed := int64(1); seed <= 3; seed++ {
		want := rand.New(rand.NewSource(seed))
		n := &Network{rng: rand.New(rand.NewSource(seed))}
		for i := 0; i < 20000; i++ {
			k := ks[i%len(ks)]
			if got, w := n.intn(k), want.Intn(k); got != w {
				t.Fatalf("seed %d draw %d: intn(%d) = %d, math/rand Intn = %d", seed, i, k, got, w)
			}
		}
		if a, b := n.rng.Int63(), want.Int63(); a != b {
			t.Fatalf("seed %d: streams out of step after the draws", seed)
		}
	}
}

// TestShuffleMatchesMathRand checks shuffleRequests against
// rand.Shuffle: the same permutation and the same source consumption
// for every length up to 300, including 0 and 1 (which draw nothing).
func TestShuffleMatchesMathRand(t *testing.T) {
	want := rand.New(rand.NewSource(7))
	n := &Network{rng: rand.New(rand.NewSource(7))}
	for size := 0; size <= 300; size++ {
		n.requests = n.requests[:0]
		ref := make([]request, size)
		for i := range ref {
			ref[i] = request{vc: uint8(i), port: int8(i >> 8)}
			n.requests = append(n.requests, ref[i])
		}
		n.shuffleRequests()
		want.Shuffle(size, func(i, j int) { ref[i], ref[j] = ref[j], ref[i] })
		for i := range ref {
			if n.requests[i] != ref[i] {
				t.Fatalf("length %d: position %d differs", size, i)
			}
		}
	}
	if n.rng.Int63() != want.Int63() {
		t.Fatal("streams out of step after the shuffles")
	}
}
