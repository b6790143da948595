package core

import (
	"context"
	"time"

	"probprune/internal/domination"
	"probprune/internal/geom"
	"probprune/internal/gf"
	"probprune/internal/uncertain"
)

// Session is an incremental IDCA computation. Run and RunIndexed drive
// a Session to completion internally; callers that want to interleave
// refinement with their own logic (render intermediate bounds, apply
// custom budgets, refine several targets round-robin) construct one
// with NewSession and call Step explicitly.
//
// A Session also implements the adaptive refinement heuristic the paper
// names as future work ("investigate further heuristics for the
// refinement process"): with Options.Adaptive set, candidates whose
// aggregated domination interval is already tight are not decomposed
// further, concentrating work on the candidates that still contribute
// uncertainty. Lemma 3 permits per-candidate decomposition depths, so
// correctness is unaffected.
type Session struct {
	res  *Result
	opts Options
	norm geom.Norm
	// bSrc/rSrc/aSrcs supply the target, reference and influence-object
	// decompositions — session-private DecompTrees by default, shared
	// RefDecomps when Options.SharedTarget/SharedReference/SharedDecomps
	// install them. A Session with shared sources is safe to drive
	// concurrently with other sessions sharing the same structures (they
	// synchronize internally); everything else here is session-private.
	bSrc  partitionSource
	rSrc  partitionSource
	aSrcs []partitionSource
	// aLevels is the current decomposition level per candidate; without
	// the adaptive heuristic all entries equal level.
	aLevels []int
	// candWidth is the aggregated interval width per candidate after
	// the last step — the adaptive heuristic's signal.
	candWidth []float64
	level     int
	done      bool
}

// defaultAdaptiveEps is the interval width below which the adaptive
// heuristic freezes a candidate's decomposition.
const defaultAdaptiveEps = 1e-3

// NewSession prepares an incremental run: the complete-domination
// filter is executed immediately (a linear scan over db); refinement
// happens on Step.
func NewSession(db uncertain.Database, target, reference *uncertain.Object, opts Options) *Session {
	res, trees := filterLinear(db, target, reference, opts)
	return newSession(res, trees, opts)
}

// NewSessionIndexed is NewSession with the filter pushed into an R-tree
// (see RunIndexed).
func NewSessionIndexed(index IndexTree, target, reference *uncertain.Object, opts Options) *Session {
	res, trees := filterIndexed(index, target, reference, opts)
	return newSession(res, trees, opts)
}

func newSession(res *Result, aSrcs []partitionSource, opts Options) *Session {
	s := &Session{
		res:       res,
		opts:      opts,
		norm:      opts.norm(),
		aSrcs:     aSrcs,
		aLevels:   make([]int, len(aSrcs)),
		candWidth: make([]float64, len(aSrcs)),
	}
	for i, t := range aSrcs {
		s.candWidth[i] = t.Object().ExistenceProb() // initial interval [0, e]
	}
	if len(res.Influence) == 0 {
		s.done = true
		return s
	}
	if s.opts.Scratch == nil {
		// Refinement always runs in an arena; a caller that installs
		// none gets a private one for the session's lifetime.
		s.opts.Scratch = NewScratch()
	}
	s.bSrc = resolveSource(res.Target, opts.SharedTarget, opts)
	s.rSrc = resolveSource(res.Reference, opts.SharedReference, opts)
	return s
}

// Result returns the session's (live) result; it is updated in place by
// Step.
func (s *Session) Result() *Result { return s.res }

// Level returns the number of refinement steps executed so far.
func (s *Session) Level() int { return s.level }

// Done reports whether further Steps would be no-ops (converged,
// decided, or nothing to refine).
func (s *Session) Done() bool { return s.done }

// Step executes one refinement iteration of Algorithm 1 and reports
// whether the bounds can still improve. It does NOT consult
// Options.MaxIterations — the caller owns the budget — but it does
// honor Options.Stop and the convergence threshold.
func (s *Session) Step() bool {
	if s.done {
		return false
	}
	if s.opts.Stop != nil && s.opts.Stop(s.res) {
		s.res.Decided = true
		s.done = true
		return false
	}
	start := time.Now()
	s.level++
	bParts := s.bSrc.PartitionsAtLevel(s.level)
	rParts := s.rSrc.PartitionsAtLevel(s.level)
	c := len(s.aSrcs)
	aParts, exist := s.opts.Scratch.partLists(c), s.opts.Scratch.existSlice(c)
	eps := s.opts.adaptiveEps()
	for i, t := range s.aSrcs {
		if !s.opts.Adaptive || s.candWidth[i] > eps {
			s.aLevels[i] = s.level
		}
		aParts[i] = t.PartitionsAtLevel(s.aLevels[i])
		exist[i] = t.Object().ExistenceProb()
	}
	bounds, cdf, widths := iterate(s.norm, s.opts, bParts, rParts, aParts, exist)
	s.res.Bounds, s.res.CDF = bounds, cdf
	s.candWidth = widths
	s.res.Iterations = append(s.res.Iterations, IterStat{
		Level:       s.level,
		Duration:    time.Since(start),
		Uncertainty: s.res.Uncertainty(),
	})
	if s.opts.Stop != nil && s.opts.Stop(s.res) {
		s.res.Decided = true
		s.done = true
		return false
	}
	if s.res.Uncertainty() <= s.opts.eps() {
		s.done = true
		return false
	}
	return true
}

// refine drives a session for Options.MaxIterations steps (the Run
// entry points).
func refine(res *Result, aSrcs []partitionSource, opts Options) {
	s := newSession(res, aSrcs, opts)
	if s.done {
		return
	}
	// Honor an immediately-satisfied Stop without charging an iteration.
	for i := 0; i < opts.maxIterations(); i++ {
		if !s.Step() {
			return
		}
	}
}

// iterate evaluates one refinement level: for every (B', R') partition
// pair it computes the candidates' independent domination intervals
// (Lemma 3 within the conditioned world set, Lemma 5), expands the
// uncertain generating function, and combines the conditional bounds
// weighted by P(B')·P(R') (Section IV-E). The third return value is
// the aggregated per-candidate interval width (the adaptive signal).
//
// The pairs are dealt round-robin to w = min(Parallelism, #pairs)
// workers through ForEach, each summing in its own arena (worker 0 in
// Options.Scratch), and the per-worker sums merge in worker order. At
// w = 1 that is the plain sequential sum; at any fixed w the result is
// deterministic and differs from the sequential one only by float
// reassociation.
func iterate(n geom.Norm, opts Options, bParts, rParts []uncertain.Partition, aParts [][]uncertain.Partition, exist []float64) ([]gf.Interval, []gf.Interval, []float64) {
	sc := opts.Scratch
	pairs := sc.pairList(len(bParts) * len(rParts))
	for _, bp := range bParts {
		for _, rp := range rParts {
			pairs = append(pairs, brPair{b: bp, r: rp})
		}
	}
	c := len(aParts)
	hi := boundsHi(c, opts.KMax)
	l := &pairLevel{
		norm:   n,
		crit:   opts.Criterion,
		kMax:   opts.KMax,
		pairs:  pairs,
		aParts: aParts,
		exist:  exist,
		arenas: sc.workerArenas(max(1, min(opts.Parallelism, len(pairs)))),
		// Worker 0's accumulators are retained by the caller (they
		// become the Result's bounds), so they are allocated per step,
		// never arena-backed.
		bounds: make([]gf.Interval, hi+1),
		cdf:    make([]gf.Interval, hi+2),
		widths: make([]float64, c),
	}
	ForEach(context.Background(), len(l.arenas), len(l.arenas), l.sum)
	for _, a := range l.arenas[1:] {
		addScaled(l.bounds, a.sumB, 1)
		addScaled(l.cdf, a.sumC, 1)
		for i := range l.widths {
			l.widths[i] += a.sumW[i]
		}
	}
	clampAll(l.bounds)
	clampAll(l.cdf)
	return l.bounds, l.cdf, l.widths
}

// pairLevel is the (B', R') pair loop of one refinement level, shared
// read-only by its workers; worker j evaluates in arenas[j].
type pairLevel struct {
	norm   geom.Norm
	crit   geom.Criterion
	kMax   int
	pairs  []brPair
	aParts [][]uncertain.Partition
	exist  []float64
	arenas []*Scratch
	// bounds, cdf and widths are worker 0's accumulators: the level's
	// result.
	bounds, cdf []gf.Interval
	widths      []float64
}

// sum is the pair loop's one body: worker j sums pairs j, j+w, …,
// weighted by P(B')·P(R'), into its accumulators — worker 0 straight
// into the level's result, every other worker into its arena's.
func (l *pairLevel) sum(j int) {
	a := l.arenas[j]
	bounds, cdf, widths := l.bounds, l.cdf, l.widths
	if j > 0 {
		bounds, cdf, widths = a.sums(len(bounds), len(widths))
	}
	ivs := a.intervals(len(l.aParts))
	for i := j; i < len(l.pairs); i += len(l.arenas) {
		p := l.pairs[i]
		for k := range l.aParts {
			ivs[k] = domination.BoundsWithExistence(l.norm, l.crit, l.aParts[k], l.exist[k], p.b.MBR, p.r.MBR)
		}
		b, cd := expandBoundsScratch(a, ivs, l.kMax)
		w := p.b.Prob * p.r.Prob
		addScaled(bounds, b, w)
		addScaled(cdf, cd, w)
		for k := range ivs {
			widths[k] += w * ivs[k].Width()
		}
	}
}

// brPair is one (B', R') partition pair of a refinement level.
type brPair struct{ b, r uncertain.Partition }

func addScaled(dst, src []gf.Interval, w float64) {
	for k := range dst {
		dst[k].LB += w * src[k].LB
		dst[k].UB += w * src[k].UB
	}
}

func clampAll(ivs []gf.Interval) {
	for i := range ivs {
		if ivs[i].LB < 0 {
			ivs[i].LB = 0
		}
		if ivs[i].UB > 1 {
			ivs[i].UB = 1
		}
		if ivs[i].UB < ivs[i].LB {
			ivs[i].UB = ivs[i].LB
		}
	}
}
