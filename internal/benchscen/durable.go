// Durability-v2 scenario bodies: the SyncAlways ingest pair that
// measures what group commit buys over one-fsync-per-commit, and the
// checkpoint-under-load scenario that measures commit latency while
// background checkpoints encode and install off the write path. See
// the package comment in benchscen.go for the conventions.
package benchscen

import (
	"context"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"probprune"
)

// groupCommitters is the committer fan-in of DurableIngestGroupCommit.
// RunParallel spawns this many goroutines per GOMAXPROCS; committers
// block in the journal's durability wait, not on a P, so the batch
// forms even in the serial (GOMAXPROCS=1) pass.
const groupCommitters = 8

// DurableIngestSerial: SyncAlways updates from a single committer —
// with nobody to share a batch with, every commit pays a full fsync.
// This is the per-commit-fsync baseline group_commit_speedup is
// measured against.
func DurableIngestSerial(b *testing.B, db probprune.Database) {
	s, err := probprune.BootstrapStore(db,
		probprune.PersistOptions{Dir: b.TempDir(), Sync: probprune.SyncAlways},
		probprune.Options{MaxIterations: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim, _ := s.Get(db[rng.Intn(len(db))].ID)
		if err := s.UpdateCtx(context.Background(), driftObject(b, rng, victim)); err != nil {
			b.Fatal(err)
		}
	}
}

// DurableIngestGroupCommit: the same SyncAlways update stream from
// concurrent committers. One leader fsync acknowledges every append
// that landed before it, so each commit pays ~1/batch of an fsync
// instead of a whole one. The ratio to DurableIngestSerial is
// cmd/bench's group_commit_speedup.
func DurableIngestGroupCommit(b *testing.B, db probprune.Database) {
	s, err := probprune.BootstrapStore(db,
		probprune.PersistOptions{Dir: b.TempDir(), Sync: probprune.SyncAlways},
		probprune.Options{MaxIterations: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var seed atomic.Int64
	b.SetParallelism(groupCommitters)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(500 + seed.Add(1)))
		for pb.Next() {
			victim, _ := s.Get(db[rng.Intn(len(db))].ID)
			if err := s.UpdateCtx(context.Background(), driftObject(b, rng, victim)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// CheckpointUnderLoad: journaled updates under an aggressive
// auto-checkpoint policy. A commit pays only the O(1) snapshot pin
// under the store lock; encoding and installing the checkpoint runs on
// the background scheduler, and pins submitted while an install is
// busy coalesce instead of queueing. Reports the p99 and max
// single-commit latency — under the old synchronous design every
// CheckpointEvery-th commit stalled for a full database encode, which
// at this cadence (1/64 > 1%) would show up directly in the p99 —
// plus the rate of coalesced checkpoint pins.
func CheckpointUnderLoad(b *testing.B, db probprune.Database) {
	s, err := probprune.BootstrapStore(db,
		probprune.PersistOptions{Dir: b.TempDir(), CheckpointEvery: 64},
		probprune.Options{MaxIterations: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(6))
	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim, _ := s.Get(db[rng.Intn(len(db))].ID)
		o := driftObject(b, rng, victim)
		start := time.Now()
		err := s.UpdateCtx(context.Background(), o)
		lat = append(lat, time.Since(start))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-commit-ns")
	b.ReportMetric(float64(lat[len(lat)-1]), "max-commit-ns")
	snap := s.Metrics().Snapshot()
	b.ReportMetric(float64(snap["store.checkpoint.coalesced"])/float64(b.N), "ckpt-coalesced/op")
}
