package query

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/uncertain"
)

// TestDurableShardedLifecycle drives the sharded durability surface the
// equivalence suite does not: explicit Checkpoint/Sync, the shard-count
// guard, bootstrap refusal, and post-Close mutation errors.
func TestDurableShardedLifecycle(t *testing.T) {
	db, _ := traceCase(t, 11, false)
	opts := core.Options{MaxIterations: 2}
	popts := PersistOptions{Dir: filepath.Join(t.TempDir(), "db")}

	mem, err := NewShardedStore(db, ShardedOptions{Shards: 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Checkpoint(); err == nil || !strings.Contains(err.Error(), "not durable") {
		t.Fatalf("checkpoint on in-memory sharded store: %v", err)
	}
	if err := mem.Sync(); err != nil { // no journals: a no-op
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil { // no journals: a no-op
		t.Fatal(err)
	}

	s, err := BootstrapShardedStore(db, popts, ShardedOptions{Shards: 3}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InsertCtx(context.Background(), uncertain.PointObject(9001, geom.Point{0.2, 0.2})); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A second bootstrap over the same directory must refuse.
	if _, err := BootstrapShardedStore(db, popts, ShardedOptions{Shards: 3}, opts); err == nil {
		t.Fatal("bootstrap over an existing manifest succeeded")
	}
	// Exercise the query surface on the durable sharded store.
	q := uncertain.PointObject(-1, geom.Point{0.5, 0.5})
	snap := s.Snapshot()
	if snap.NumShards() != 3 || snap.Shard(0) == nil || snap.Len() != s.Len() {
		t.Fatal("snapshot shape wrong")
	}
	must(s.RankByExpectedRankCtx(context.Background(), q))
	must(s.UKRanksCtx(context.Background(), q, 2))
	if err := s.BatchCtx(context.Background(), func(ctx context.Context, e *Engine) error {
		_, err := e.KNNCtx(ctx, q, 2, 0.5)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BatchKNN(context.Background(), []KNNRequest{{Q: q, K: 2, Tau: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TopKNNCtx(context.Background(), q, 2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RKNNCtx(context.Background(), q, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.KNNCtx(context.Background(), q, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertCtx(context.Background(), uncertain.PointObject(9002, geom.Point{0.1, 0.1})); err == nil {
		t.Fatal("insert after Close succeeded")
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint after Close succeeded")
	}

	// Reopen with a contradicting shard count: refused.
	if _, err := OpenShardedStore(popts, ShardedOptions{Shards: 5}, opts); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	// Reopen with the manifest's count inferred (Shards: 0).
	r, err := OpenShardedStore(popts, ShardedOptions{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumShards() != 3 {
		t.Fatalf("recovered %d shards, want 3", r.NumShards())
	}
}

// TestDeleteErrAndChangeKinds covers DeleteCtx's found/not-found
// answers on a durable store and the Change/ChangeKind accessors.
func TestDeleteErrAndChangeKinds(t *testing.T) {
	db, _ := traceCase(t, 13, false)
	s, err := BootstrapStore(db, PersistOptions{Dir: filepath.Join(t.TempDir(), "db")}, core.Options{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ok, err := s.DeleteCtx(context.Background(), db[0].ID)
	if !ok || err != nil {
		t.Fatalf("DeleteCtx = %v, %v", ok, err)
	}
	ok, err = s.DeleteCtx(context.Background(), db[0].ID)
	if ok || err != nil {
		t.Fatalf("second DeleteCtx = %v, %v", ok, err)
	}
	for kind, want := range map[ChangeKind]string{
		ChangeInsert: "insert", ChangeUpdate: "update", ChangeDelete: "delete", ChangeKind(9): "unknown",
	} {
		if kind.String() != want {
			t.Fatalf("%d.String() = %q", kind, kind.String())
		}
	}
}

// TestDeleteCtxClosedStoreErrors: a delete that cannot be journaled
// reports its error. On a closed durable store a stored ID answers a
// non-nil error, not the (false, nil) of an ID that is not stored, and
// the object stays in memory.
func TestDeleteCtxClosedStoreErrors(t *testing.T) {
	db, _ := traceCase(t, 13, false)
	s, err := BootstrapStore(db, PersistOptions{Dir: filepath.Join(t.TempDir(), "db")}, core.Options{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ok, err := s.DeleteCtx(context.Background(), db[0].ID)
	if err == nil {
		t.Fatalf("DeleteCtx on a closed store = %v, nil; want an error", ok)
	}
	if ok {
		t.Fatal("DeleteCtx reported a delete it did not journal")
	}
	if _, stored := s.Get(db[0].ID); !stored {
		t.Fatal("failed delete removed the object")
	}
}
