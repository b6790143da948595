package core

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"probprune/internal/gf"
)

// goldenDigests are FNV-1a digests of the Float64bits of Run's Bounds
// and CDF in TestPairLoopGolden's world, per Parallelism. They pin the
// pair-loop reduction order: worker j sums pairs j, j+w, … and the
// per-worker sums merge in worker order, so each worker count has one
// exact result. Parallelism 1 is the sequential sum; 2 and 3 differ
// from it by float reassociation (40 samples per object make the
// partition probabilities non-dyadic, so the sums do round). A kernel
// or pair-loop change that moves any of these must justify the new
// bits and re-record them.
var goldenDigests = map[int]uint64{
	1: 0xc5b5d69444f52ab4,
	2: 0xf579094e0835c9fc,
	3: 0xbaded0854f614547,
}

func boundsDigest(bounds, cdf []gf.Interval) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(f float64) {
		u := math.Float64bits(f)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, ivs := range [][]gf.Interval{bounds, cdf} {
		for _, iv := range ivs {
			put(iv.LB)
			put(iv.UB)
		}
	}
	return h.Sum64()
}

// TestPairLoopGolden runs IDCA on a fixed world at Parallelism 0 to 3,
// with and without a Scratch, and compares the bit patterns of the
// bounds with the recorded goldenDigests (0 runs sequentially, like 1).
func TestPairLoopGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db, target, reference := smallWorld(rng, 10, 40)
	const iters = 4
	s := NewSession(db, target, reference, Options{})
	for i := 0; i < iters; i++ {
		s.Step()
	}
	if s.Level() != iters {
		t.Fatalf("session stopped at level %d, want %d", s.Level(), iters)
	}
	pairs := len(s.bSrc.PartitionsAtLevel(iters)) * len(s.rSrc.PartitionsAtLevel(iters))
	if pairs < 64 {
		t.Fatalf("deepest level has %d (B′, R′) pairs, want ≥ 64", pairs)
	}
	if n := len(s.Result().Influence); n < 3 {
		t.Fatalf("influence set of %d objects is too small to exercise the UGF", n)
	}
	for _, par := range []int{0, 1, 2, 3} {
		for _, sc := range []*Scratch{nil, NewScratch()} {
			res := Run(db, target, reference, Options{MaxIterations: iters, Parallelism: par, Scratch: sc})
			got := boundsDigest(res.Bounds, res.CDF)
			want := goldenDigests[max(par, 1)]
			t.Logf("Parallelism %d, scratch %t: digest %#x (%d bounds)", par, sc != nil, got, len(res.Bounds))
			if got != want {
				t.Errorf("Parallelism %d, scratch %t: bounds digest %#x, want %#x", par, sc != nil, got, want)
			}
		}
	}
}
