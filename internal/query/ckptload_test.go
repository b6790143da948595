package query

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/uncertain"
)

// These tests pin down the two promises of background checkpointing:
// commits are never stalled by a checkpoint install (the commit path
// pays only the O(1) pin under the store lock), and a crash at ANY step
// of the background install recovers to the exact committed state.

// TestCheckpointUnderLoad parks the background install on the
// scheduler's gate and keeps committing: every insert must complete
// while the install is stuck, pins submitted behind the parked install
// must coalesce instead of queueing, and releasing the gate must drain
// cleanly into a recoverable directory.
func TestCheckpointUnderLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, _ := traceCase(t, 13, false)
	opts := core.Options{MaxIterations: 3}
	s, err := BootstrapStore(db, PersistOptions{Dir: dir, CheckpointEvery: 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.journal.sched.gate = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	obj := func(i int) *uncertain.Object {
		return uncertain.PointObject(3000+i, geom.Point{0.05 * float64(i), 0.3})
	}
	for i := 0; i < 4; i++ { // trips the auto-checkpoint policy
		if err := s.InsertCtx(context.Background(), obj(i)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("auto-checkpoint never reached the background installer")
	}

	// The install is parked. Commits must keep flowing — they pay the
	// pin, never the install.
	const extra = 40
	committed := make(chan error, 1)
	go func() {
		for i := 4; i < 4+extra; i++ {
			if err := s.InsertCtx(context.Background(), obj(i)); err != nil {
				committed <- fmt.Errorf("insert %d: %w", i, err)
				return
			}
		}
		committed <- nil
	}()
	select {
	case err := <-committed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("writers blocked behind a parked checkpoint install")
	}
	snap := s.Metrics().Snapshot()
	if snap["store.checkpoint.coalesced"] == 0 {
		t.Fatal("pins submitted behind the parked install were not coalesced")
	}
	if snap["store.checkpoint.queue"] == 0 {
		t.Fatal("queue gauge reads empty while an install is parked")
	}

	close(release)
	s.drainCheckpoints()
	if q := s.Metrics().Snapshot()["store.checkpoint.queue"]; q != 0 {
		t.Fatalf("queue gauge = %d after drain", q)
	}
	wantLen, wantVer := s.Len(), s.Version()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenStore(PersistOptions{Dir: dir}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != wantLen || r.Version() != wantVer {
		t.Fatalf("recovered len %d version %d, want %d and %d", r.Len(), r.Version(), wantLen, wantVer)
	}
	for i := 0; i < 4+extra; i++ {
		if _, ok := r.Get(3000 + i); !ok {
			t.Fatalf("recovered store lost insert %d", i)
		}
	}
}

// TestKillPointStoreCheckpointInstall pins a checkpoint, commits past
// the pin, then crashes the install at every step; every image must
// recover to the full committed state — the post-pin commits survive
// whichever recovery base (old or new checkpoint) the image holds.
func TestKillPointStoreCheckpointInstall(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, _ := traceCase(t, 14, false)
	opts := core.Options{MaxIterations: 3}
	s, err := BootstrapStore(db, PersistOptions{Dir: dir}, opts)
	if err != nil {
		t.Fatal(err)
	}
	obj := func(i int) *uncertain.Object {
		return uncertain.PointObject(4000+i, geom.Point{0.04 * float64(i), 0.6})
	}
	for i := 0; i < 8; i++ {
		if err := s.InsertCtx(context.Background(), obj(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	job, err := s.pinCheckpointLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 12; i++ { // commits that land after the pin
		if err := s.InsertCtx(context.Background(), obj(i)); err != nil {
			t.Fatal(err)
		}
	}
	snaps := map[string]string{}
	snapshot := func(step string) {
		dst := t.TempDir()
		copyTree(t, dir, dst)
		snaps[step] = dst
	}
	snapshot("begin")
	s.journal.wals[0].SetInstallHook(func(step string) { snapshot(step) })
	if err := s.journal.install(job); err != nil {
		t.Fatal(err)
	}
	snapshot("done")
	wantLen, wantVer := s.Len(), s.Version()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for _, step := range []string{"begin", "encode", "installed", "removed-ckpt", "removed-segs", "done"} {
		sdir, ok := snaps[step]
		if !ok {
			t.Fatalf("install never reached step %q", step)
		}
		r, err := OpenStore(PersistOptions{Dir: sdir}, opts)
		if err != nil {
			t.Fatalf("%s: recovery: %v", step, err)
		}
		if r.Len() != wantLen || r.Version() != wantVer {
			t.Fatalf("%s: recovered len %d version %d, want %d and %d",
				step, r.Len(), r.Version(), wantLen, wantVer)
		}
		for i := 0; i < 12; i++ {
			if _, ok := r.Get(4000 + i); !ok {
				t.Fatalf("%s: insert %d lost", step, i)
			}
		}
		r.Close()
	}
}

// TestKillPointShardedCheckpointInstall crashes a sharded checkpoint —
// manifest save, then per-shard installs — at every step of every
// shard's install; each image must recover the full committed state
// whatever mix of old and new shard checkpoints it caught.
func TestKillPointShardedCheckpointInstall(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, _ := traceCase(t, 15, true)
	opts := core.Options{MaxIterations: 3}
	s, err := BootstrapShardedStore(db, PersistOptions{Dir: dir},
		ShardedOptions{Shards: 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	obj := func(i int) *uncertain.Object {
		return uncertain.PointObject(5000+i, geom.Point{0.06 * float64(i), 0.8})
	}
	for i := 0; i < 10; i++ {
		if err := s.InsertCtx(context.Background(), obj(i)); err != nil {
			t.Fatal(err)
		}
	}
	snaps := map[string]string{}
	snapshot := func(step string) {
		dst := t.TempDir()
		copyTree(t, dir, dst)
		snaps[step] = dst
	}
	snapshot("begin")
	for i, j := range s.journal.wals {
		shard := i
		j.SetInstallHook(func(step string) {
			snapshot(fmt.Sprintf("shard-%d:%s", shard, step))
		})
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snapshot("done")
	wantLen, wantVer := s.Len(), s.Version()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if len(snaps) < 2+2*4 {
		t.Fatalf("only %d crash images captured", len(snaps))
	}
	for step, sdir := range snaps {
		r, err := OpenShardedStore(PersistOptions{Dir: sdir}, ShardedOptions{Shards: 2}, opts)
		if err != nil {
			t.Fatalf("%s: recovery: %v", step, err)
		}
		if r.Len() != wantLen || r.Version() != wantVer {
			t.Fatalf("%s: recovered len %d version %d, want %d and %d",
				step, r.Len(), r.Version(), wantLen, wantVer)
		}
		for i := 0; i < 10; i++ {
			if _, ok := r.Get(5000 + i); !ok {
				t.Fatalf("%s: insert %d lost", step, i)
			}
		}
		r.Close()
	}
}

// TestKillPointBootstrapInstall crashes a bootstrap at every step of
// its genesis install — each shard's checkpoint install, the manifest,
// the marker removal — at one and at two shards. Every crash image must
// open: as a fresh store before the manifest landed (and a retried
// bootstrap then holds the full database), or holding the full
// database after.
func TestKillPointBootstrapInstall(t *testing.T) {
	db, _ := traceCase(t, 16, false)
	opts := core.Options{MaxIterations: 2}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			sopts := ShardedOptions{Shards: shards}
			s, job, err := prepareBootstrap(db, PersistOptions{Dir: dir}, sopts, opts)
			if err != nil {
				t.Fatal(err)
			}
			snaps := map[string]string{}
			snapshot := func(step string) {
				dst := t.TempDir()
				copyTree(t, dir, dst)
				snaps[step] = dst
			}
			snapshot("begin")
			for i, j := range s.journal.wals {
				shard := i
				j.SetInstallHook(func(step string) {
					snapshot(fmt.Sprintf("shard-%d:%s", shard, step))
				})
			}
			if err := s.journal.installGenesis(job); err != nil {
				t.Fatal(err)
			}
			snapshot("done")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			// The image between the manifest save and the marker removal.
			snapshot("manifest")
			if err := os.WriteFile(filepath.Join(snaps["manifest"], bootstrapMarker), nil, 0o644); err != nil {
				t.Fatal(err)
			}
			if len(snaps) < 3+4*shards {
				t.Fatalf("only %d crash images captured", len(snaps))
			}

			full := func(step string, r *Store) {
				t.Helper()
				if r.Len() != len(db) {
					t.Fatalf("%s: %d objects, want %d", step, r.Len(), len(db))
				}
				for _, o := range db {
					if _, ok := r.Get(o.ID); !ok {
						t.Fatalf("%s: object %d lost", step, o.ID)
					}
				}
			}
			for step, sdir := range snaps {
				_, err := os.Stat(filepath.Join(sdir, manifestName))
				committed := err == nil
				retry := t.TempDir() // the image again, for a retried bootstrap
				copyTree(t, sdir, retry)
				r, err := OpenStore(PersistOptions{Dir: sdir}, opts)
				if err != nil {
					t.Fatalf("%s: open: %v", step, err)
				}
				if committed {
					full(step, r)
					if r.NumShards() != shards {
						t.Fatalf("%s: reopened with %d shards, want %d", step, r.NumShards(), shards)
					}
				} else if r.Len() != 0 {
					t.Fatalf("%s: uncommitted bootstrap reopened with %d objects, want a fresh store", step, r.Len())
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				if committed {
					continue
				}
				b, err := BootstrapShardedStore(db, PersistOptions{Dir: retry}, sopts, opts)
				if err != nil {
					t.Fatalf("%s: retried bootstrap: %v", step, err)
				}
				full(step+" retried", b)
				if err := b.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
