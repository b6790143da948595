// Benchmarks for the live store: BenchmarkStoreWarmKNNSampleHeavy
// measures repeated kNN queries against a stable Store of sample-heavy
// objects (300 x 512 samples; cmd/bench's StoreWarmKNN scenario is a
// different, 1000 x 8 workload) — the persistent decomposition cache
// makes later queries skip every influence-object kd-split — next to
// the cold path that builds a fresh Engine per query. BenchmarkBulkLoad
// compares the STR bulk build of the R-tree against incremental
// insertion.
package probprune_test

import (
	"context"
	"testing"

	"probprune"
)

func BenchmarkStoreWarmKNNSampleHeavy(b *testing.B) {
	// Sample-heavy objects make the kd-splits the cache elides a
	// visible fraction of the query (the UGF refinement work is
	// untouched by caching and dominates at low sample counts).
	db, err := probprune.Synthetic(probprune.SyntheticConfig{N: 300, Samples: 512, MaxExtent: 0.15, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
	opts := probprune.Options{Parallelism: 1}

	b.Run("engine-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine := probprune.NewEngine(db, opts)
			must(engine.KNNCtx(context.Background(), q, 10, 0.5))
		}
	})
	b.Run("store-warm", func(b *testing.B) {
		store, err := probprune.NewStore(db, opts)
		if err != nil {
			b.Fatal(err)
		}
		store.KNN(q, 10, 0.5) // warm the persistent cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store.KNN(q, 10, 0.5)
		}
	})
}

func BenchmarkBulkLoad(b *testing.B) {
	db, err := probprune.Synthetic(probprune.SyntheticConfig{N: 10000, Samples: 4, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("str-bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			probprune.NewIndex(db)
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree := probprune.NewIndex(nil)
			for _, o := range db {
				tree.Insert(o.MBR, o)
			}
		}
	})
}
