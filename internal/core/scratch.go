package core

import (
	"probprune/internal/gf"
	"probprune/internal/uncertain"
)

// Scratch is a reusable arena for the allocation-heavy temporaries of
// IDCA runs: the generating function expanded per (B', R') partition
// pair, the per-candidate interval scratch, the per-pair bound arrays,
// and the per-step pair/partition tables. One warm Scratch makes the
// whole refinement loop allocation-free per pair; the query layer keeps
// a pool of them and installs one per run via Options.Scratch.
//
// A run whose pair loop has w > 1 workers evaluates worker 0's pairs
// in this arena and the others' in private peer arenas it retains, so
// the arena serves every worker count without allocating per pair.
//
// A Scratch must never be used by two runs concurrently. Reusing it
// sequentially is always safe: every slice that outlives a run (Result
// bounds, influence sets, iteration stats) is freshly allocated, never
// scratch-backed, so results stay valid after the arena moves on to the
// next run. Bounds are bit-identical with and without a Scratch.
type Scratch struct {
	ugf    gf.UGF
	ivs    []gf.Interval
	bounds []gf.Interval
	cdf    []gf.Interval
	pairs  []brPair
	aParts [][]uncertain.Partition
	exist  []float64

	// arenas are the pair-loop workers' arenas: this one first, then
	// the peers. sumB, sumC and sumW are a peer's accumulators.
	arenas     []*Scratch
	sumB, sumC []gf.Interval
	sumW       []float64
}

// NewScratch returns an empty arena; buffers grow on first use and are
// retained across runs.
func NewScratch() *Scratch { return &Scratch{} }

// resize returns s with length n, reallocating only when its capacity
// is short. Contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// intervals returns the per-candidate interval buffer resized to n.
// Contents are unspecified; callers assign every element.
func (sc *Scratch) intervals(n int) []gf.Interval {
	sc.ivs = resize(sc.ivs, n)
	return sc.ivs
}

// boundArrays returns the per-pair bound/CDF buffers sized for hi.
func (sc *Scratch) boundArrays(hi int) (bounds, cdf []gf.Interval) {
	sc.bounds, sc.cdf = resize(sc.bounds, hi+1), resize(sc.cdf, hi+2)
	return sc.bounds, sc.cdf
}

// pairList returns the (B', R') pair table, emptied for appending.
func (sc *Scratch) pairList(capHint int) []brPair {
	sc.pairs = resize(sc.pairs, capHint)[:0]
	return sc.pairs
}

// workerArenas returns the arenas of a w-worker pair loop: this arena
// for worker 0, retained peers for the rest.
func (sc *Scratch) workerArenas(w int) []*Scratch {
	if len(sc.arenas) == 0 {
		sc.arenas = append(sc.arenas, sc)
	}
	for len(sc.arenas) < w {
		sc.arenas = append(sc.arenas, NewScratch())
	}
	return sc.arenas[:w]
}

// sums returns a peer worker's accumulators, zeroed: nb bound entries
// (nb+1 CDF entries) and c candidate widths.
func (sc *Scratch) sums(nb, c int) (bounds, cdf []gf.Interval, widths []float64) {
	sc.sumB, sc.sumC, sc.sumW = resize(sc.sumB, nb), resize(sc.sumC, nb+1), resize(sc.sumW, c)
	clear(sc.sumB)
	clear(sc.sumC)
	clear(sc.sumW)
	return sc.sumB, sc.sumC, sc.sumW
}

// partLists returns the per-candidate partition-list buffer resized to
// n; every element is assigned by the caller.
func (sc *Scratch) partLists(n int) [][]uncertain.Partition {
	sc.aParts = resize(sc.aParts, n)
	return sc.aParts
}

// existSlice returns the per-candidate existence buffer resized to n;
// every element is assigned by the caller.
func (sc *Scratch) existSlice(n int) []float64 {
	sc.exist = resize(sc.exist, n)
	return sc.exist
}

// scratchUGF returns a neutral UGF with the given truncation: the
// arena's reusable instance when available, a fresh one otherwise.
func scratchUGF(sc *Scratch, kMax int) *gf.UGF {
	if sc == nil {
		if kMax > 0 {
			return gf.NewTruncatedUGF(kMax)
		}
		return gf.NewUGF()
	}
	sc.ugf.Reset(kMax)
	return &sc.ugf
}
