//go:build !race

// Hard allocation ceilings for the hot query paths, enforced in plain
// test runs and in CI (the race detector instruments allocations, so
// the ceilings only hold — and only run — without -race). The numbers
// bound the regression budget for the flat-node R-tree + per-query
// arena work: a kNN query at db=1000 used to cost ~7,800 allocations;
// the ceilings pin it below 1,000 cold and 900 warm, with measured
// steady state several times lower still.

package probprune_test

import (
	"context"
	"time"

	"probprune/internal/obs"
	"testing"

	"probprune"
	"probprune/internal/benchscen"
)

const allocDBSize = 1000

// TestEngineKNNAllocCeiling: a threshold kNN query on a frozen engine
// (persistent pinned decomposition cache, pooled run arenas) stays
// under 1,000 allocations.
func TestEngineKNNAllocCeiling(t *testing.T) {
	db := benchscen.MustDB(allocDBSize)
	e := probprune.NewEngine(db, probprune.Options{MaxIterations: 3})
	q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
	must(e.KNNCtx(context.Background(), q, benchscen.K, benchscen.Tau)) // warm pools and decomposition cache
	allocs := testing.AllocsPerRun(5, func() {
		must(e.KNNCtx(context.Background(), q, benchscen.K, benchscen.Tau))
	})
	if allocs > 1000 {
		t.Fatalf("EngineKNN allocated %.0f times per query, ceiling 1000", allocs)
	}
	t.Logf("EngineKNN: %.0f allocs per query (ceiling 1000)", allocs)
}

// TestStoreWarmKNNAllocCeiling: the same query served warm from a live
// Store snapshot stays under 900 allocations.
func TestStoreWarmKNNAllocCeiling(t *testing.T) {
	db := benchscen.MustDB(allocDBSize)
	s, err := probprune.NewStore(db, probprune.Options{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
	s.KNN(q, benchscen.K, benchscen.Tau) // warm the persistent cache
	allocs := testing.AllocsPerRun(5, func() {
		s.KNN(q, benchscen.K, benchscen.Tau)
	})
	if allocs > 900 {
		t.Fatalf("StoreWarmKNN allocated %.0f times per query, ceiling 900", allocs)
	}
	t.Logf("StoreWarmKNN: %.0f allocs per query (ceiling 900)", allocs)
}

// TestStoreWarmKNNAllocCeilingRecorderArmed: the PR 10 observability
// work must not erode the audited hot path. The same warm-store query
// with the flight recorder installed and a slow-query threshold armed
// (the production shape of `udbserver -events -slow-query`) holds the
// same 900-allocation ceiling: the trace-off path records nothing and
// allocates nothing extra.
func TestStoreWarmKNNAllocCeilingRecorderArmed(t *testing.T) {
	db := benchscen.MustDB(allocDBSize)
	s, err := probprune.NewStore(db, probprune.Options{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.SetRecorder(obs.NewRecorder(1024))
	s.SetSlowQueryThreshold(time.Hour) // armed, never fires here
	q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
	s.KNN(q, benchscen.K, benchscen.Tau) // warm the persistent cache
	allocs := testing.AllocsPerRun(5, func() {
		s.KNN(q, benchscen.K, benchscen.Tau)
	})
	if allocs > 900 {
		t.Fatalf("StoreWarmKNN with recorder armed allocated %.0f times per query, ceiling 900", allocs)
	}
	t.Logf("StoreWarmKNN recorder armed: %.0f allocs per query (ceiling 900)", allocs)
}

// TestInverseRankAllocCeiling: inverse ranking is the one query that
// fans (B′, R′) partition pairs out over workers. At Parallelism 2 each
// worker evaluates its pairs in a reusable arena, so the query stays
// under 200 allocations (measured: 66) instead of paying one generating
// function and one set of bound arrays per pair (about 44,000 when the
// workers allocated them).
func TestInverseRankAllocCeiling(t *testing.T) {
	db, err := probprune.Synthetic(probprune.SyntheticConfig{N: 300, MaxExtent: 0.02, Samples: 64, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	e := probprune.NewEngine(db, probprune.Options{MaxIterations: 5, Parallelism: 2})
	b, r := db[0], db[1]
	rd := e.InverseRank(b, r) // warm pools
	allocs := testing.AllocsPerRun(3, func() {
		e.InverseRank(b, r)
	})
	if allocs > 200 {
		t.Fatalf("InverseRank allocated %.0f times per query, ceiling 200", allocs)
	}
	t.Logf("InverseRank at Parallelism 2: %.0f allocs per query over %d influence objects (ceiling 200)",
		allocs, len(rd.Result.Influence))
}
