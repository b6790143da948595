package main

import (
	"fmt"
	"runtime"
	"time"

	"probprune"
	"probprune/internal/core"
	"probprune/internal/domination"
	"probprune/internal/geom"
	"probprune/internal/gf"
	"probprune/internal/query"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// invrank-paper: the paper's computation. Closed loop, one caller,
// in-process Store.InverseRank over the Section VII synthetic data with
// the full count PDF, MaxIterations 5 and pair-level parallelism on
// every core. Queries follow the paper's convention (reference drawn
// from the database, target its 10th nearest by MinDist) and cycle
// through a pool of distinct (R, B) pairs whose decompositions an
// untimed warm pass has materialized.

const (
	invIterations = 5
	invRank       = 10
	invSetups     = 3
	// invExactQueries is how many queries get the exact-PDF check, and
	// invExactMaxInfluence the largest influence set it is run on:
	// the exact oracle costs samples² Poisson-binomial expansions.
	invExactQueries      = 2
	invExactMaxInfluence = 12
	// invReplayPairs bounds the (B', R') pairs the kernel replay
	// re-evaluates per query.
	invReplayPairs = 16
)

type invrankSize struct {
	n, samples, pool int
}

func (c config) invrankSize() invrankSize {
	if c.small {
		return invrankSize{n: 400, samples: 64, pool: 16}
	}
	return invrankSize{n: 10000, samples: 1000, pool: 256}
}

type invrankEnv struct {
	store   *query.Store
	queries []workload.Query
}

func invrankOpts() core.Options {
	return core.Options{MaxIterations: invIterations, Parallelism: runtime.GOMAXPROCS(0)}
}

func setupInvrank(sz invrankSize, seed int64) (*invrankEnv, error) {
	db, err := workload.Synthetic(workload.SyntheticConfig{
		N: sz.n, Dim: 2, MaxExtent: 0.004, Samples: sz.samples, Seed: seed})
	if err != nil {
		return nil, err
	}
	store, err := query.NewStore(db, invrankOpts())
	if err != nil {
		return nil, err
	}
	qs := distinctQueries(db, sz.pool, seed)
	// Warm pass: decompose every object a query's refinement reads, down
	// to the deepest level, in the store's persistent cache.
	eng := store.Snapshot().Engine()
	cache := eng.Opts.SharedDecomps
	for _, q := range qs {
		res := core.FilterIndexed(eng.Index, q.Target, q.Reference, eng.Opts)
		for _, o := range append([]*uncertain.Object{q.Target, q.Reference}, res.Influence...) {
			cache.Get(o).PartitionsAtLevel(invIterations)
		}
	}
	return &invrankEnv{store: store, queries: qs}, nil
}

// distinctQueries draws n queries by the paper's convention with no
// (R, B) pair repeated.
func distinctQueries(db uncertain.Database, n int, seed int64) []workload.Query {
	type pair struct{ r, b int }
	seen := map[pair]bool{}
	out := make([]workload.Query, 0, n)
	for round := int64(0); len(out) < n; round++ {
		for _, q := range workload.Queries(db, n, invRank, geom.L2, seed*7919+round) {
			p := pair{q.Reference.ID, q.Target.ID}
			if !seen[p] && len(out) < n {
				seen[p] = true
				out = append(out, q)
			}
		}
	}
	return out
}

func runInvrank(cfg config) (*outcome, error) {
	sz := cfg.invrankSize()
	setups := invSetups
	if cfg.trace {
		setups = 1
	}
	env, setupS, err := repeatSetup(setups,
		func() (*invrankEnv, error) { return setupInvrank(sz, cfg.seed) },
		func(*invrankEnv) {})
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.identity["objects"] = sz.n
	out.identity["samples"] = sz.samples
	out.identity["dim"] = 2
	out.identity["extent"] = 0.004
	out.identity["query_pool"] = sz.pool
	out.identity["parallelism"] = runtime.GOMAXPROCS(0)
	out.identity["flush_policy"] = "none (in-memory store)"

	lat, n := invrankLoop(env, cfg, out)
	out.metrics["setup_s"] = setupS
	out.metrics["p50_ms"] = median(lat)
	out.metrics["invrank.p95_ms"] = quantile(lat, 0.95)
	out.metrics["ops_per_s"] = n
	out.metrics["heap_mb"] = settledHeapMiB()
	runtime.KeepAlive(env)

	invrankExactCheck(env, out)
	if cfg.trace {
		invrankTraced(env, cfg, out, median(lat))
	}
	return out, nil
}

// invrankLoop is the timed closed loop: it returns the
// per-query latencies and the completed queries per second.
func invrankLoop(env *invrankEnv, cfg config, out *outcome) ([]float64, float64) {
	var lat []float64
	start := time.Now()
	end := deadline(cfg)
	for i := 0; time.Now().Before(end); i++ {
		q := env.queries[i%len(env.queries)]
		t0 := time.Now()
		rd := env.store.InverseRank(q.Target, q.Reference)
		lat = append(lat, ms(time.Since(t0)))
		out.attempted++
		if !rankSane(rd.Ranks) {
			out.failed++
		}
	}
	return lat, float64(len(lat)) / time.Since(start).Seconds()
}

// invrankExactCheck compares the bounds of a fixed subset of the pool —
// the first queries whose influence set is small enough — against the
// exact domination-count PDF. A check the pool has no query for counts
// as failed.
func invrankExactCheck(env *invrankEnv, out *outcome) {
	checked := 0
	defer func() {
		out.attempted += int64(invExactQueries - checked)
		out.failed += int64(invExactQueries - checked)
	}()
	for _, q := range env.queries {
		if checked == invExactQueries {
			break
		}
		rd := env.store.InverseRank(q.Target, q.Reference)
		infl := rd.Result.Influence
		if len(infl) == 0 || len(infl) > invExactMaxInfluence {
			continue
		}
		checked++
		out.attempted++
		exact := probprune.ExactDomCountPDF(geom.L2, infl, q.Target, q.Reference, 0)
		if !exactInside(rd.Ranks, exact) {
			out.failed++
		}
	}
}

// invrankTraced drives each query through a core.Session with spans
// around the filter and every refinement level, checks the traced
// bounds against an untraced InverseRank, and replays the deepest
// level's kernel and generating-function work to time them per call.
func invrankTraced(env *invrankEnv, cfg config, out *outcome, untracedP50 float64) {
	spans := newSpanLog()
	out.spans = spans
	eng := env.store.Snapshot().Engine()
	persistent := eng.Opts.SharedDecomps
	var (
		lat, filterMs, refineMs, uncertainty, decompMs []float64
		infl, dom, pruned                              []float64
		levelMs                                        = make([][]float64, invIterations)
		hits, misses                                   uint64
		wall, covered                                  float64
		kernelNs, gfNs                                 time.Duration
		kernelCalls, expansions                        int
	)
	ugf := gf.NewUGF()
	end := deadline(cfg)
	for i := 0; time.Now().Before(end); i++ {
		q := env.queries[i%len(env.queries)]
		opts := invrankOpts()
		opts.SharedDecomps = eng.NewQueryCache()
		opts.Scratch = core.NewScratch()

		t0 := time.Now()
		sess := core.NewSessionIndexed(eng.Index, q.Target, q.Reference, opts)
		t1 := time.Now()
		type level struct {
			n          int
			start, end time.Time
		}
		var levels []level
		tPrev := t1
		for it := 0; it < invIterations; it++ {
			before := sess.Level()
			more := sess.Step()
			tNow := time.Now()
			if sess.Level() > before {
				levels = append(levels, level{sess.Level(), tPrev, tNow})
			}
			tPrev = tNow
			if !more {
				break
			}
		}
		root := spans.add(0, i, "invrank.query", "bench", t0, tPrev)
		spans.add(root, i, "core.filter", "bench", t0, t1)
		covered += ms(t1.Sub(t0))
		for _, l := range levels {
			spans.add(root, i, fmt.Sprintf("core.refine.l%d", l.n), "bench", l.start, l.end)
			levelMs[l.n-1] = append(levelMs[l.n-1], ms(l.end.Sub(l.start)))
			covered += ms(l.end.Sub(l.start))
		}
		wall += ms(tPrev.Sub(t0))
		lat = append(lat, ms(tPrev.Sub(t0)))
		filterMs = append(filterMs, ms(t1.Sub(t0)))
		refineMs = append(refineMs, ms(tPrev.Sub(t1)))

		res := sess.Result()
		infl = append(infl, float64(len(res.Influence)))
		dom = append(dom, float64(res.CompleteDominators))
		pruned = append(pruned, float64(res.Pruned))
		uncertainty = append(uncertainty, res.Uncertainty())
		h, m := opts.SharedDecomps.Stats()
		hits += h
		misses += m

		// The traced computation must equal the untraced call bit for bit.
		out.attempted++
		rd := env.store.InverseRank(q.Target, q.Reference)
		if !sameIntervals(rd.Ranks, res.Bounds) || rd.MinRank != res.CountOffset()+1 || !rankSane(res.Bounds) {
			out.failed++
		}

		// Kernel and UGF replay over the deepest level's partitions.
		if lvl := sess.Level(); lvl > 0 && len(res.Influence) > 0 {
			bParts := persistent.Get(q.Target).PartitionsAtLevel(lvl)
			rParts := persistent.Get(q.Reference).PartitionsAtLevel(lvl)
			aParts := make([][]uncertain.Partition, len(res.Influence))
			exist := make([]float64, len(res.Influence))
			for j, a := range res.Influence {
				aParts[j] = persistent.Get(a).PartitionsAtLevel(lvl)
				exist[j] = a.ExistenceProb()
			}
			ivs := make([]gf.Interval, len(aParts))
			pairs := 0
			for _, bp := range bParts {
				for _, rp := range rParts {
					if pairs == invReplayPairs {
						break
					}
					pairs++
					k0 := time.Now()
					for j := range aParts {
						ivs[j] = domination.BoundsWithExistence(geom.L2, geom.Optimal, aParts[j], exist[j], bp.MBR, rp.MBR)
					}
					k1 := time.Now()
					ugf.Reset(0)
					ugf.MultiplyAll(ivs)
					_ = ugf.Bounds()
					k2 := time.Now()
					kernelNs += k1.Sub(k0)
					gfNs += k2.Sub(k1)
					kernelCalls += len(aParts)
					expansions++
					spans.add(root, i, "domination.replay", "replay", k0, k1)
					spans.add(root, i, "gf.replay", "replay", k1, k2)
				}
			}
		}

		// Cold decomposition of every object the query refines.
		d0 := time.Now()
		for _, o := range append([]*uncertain.Object{q.Target, q.Reference}, res.Influence...) {
			uncertain.NewDecompTree(o, 0).PartitionsAtLevel(invIterations)
		}
		d1 := time.Now()
		decompMs = append(decompMs, ms(d1.Sub(d0)))
		spans.add(root, i, "uncertain.replay", "replay", d0, d1)
	}

	out.metrics["core.filter_ms"] = median(filterMs)
	out.metrics["core.filter.influence"] = median(infl)
	out.metrics["core.filter.dominators"] = median(dom)
	out.metrics["core.filter.pruned"] = median(pruned)
	out.metrics["core.refine_ms"] = median(refineMs)
	for l, xs := range levelMs {
		out.metrics[fmt.Sprintf("core.refine.l%d_ms", l+1)] = median(xs)
	}
	out.metrics["core.uncertainty"] = median(uncertainty)
	out.metrics["domination.ns_per_call"] = ratio(float64(kernelNs), float64(kernelCalls))
	out.metrics["gf.ns_per_expand"] = ratio(float64(gfNs), float64(expansions))
	out.metrics["uncertain.decomp_ms"] = median(decompMs)
	out.metrics["query.cache_hit_rate"] = ratio(float64(hits), float64(hits+misses))
	out.metrics["obs.trace_overhead"] = ratio(median(lat), untracedP50)
	attribution(out, wall, covered)
}
