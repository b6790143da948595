package query

import (
	"context"
	"fmt"
	"sync"
	"time"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/obs"
	"probprune/internal/rtree"
	"probprune/internal/uncertain"
	"probprune/internal/wal"
)

// Store is a concurrent, mutable uncertain-object store layered on the
// query engine: live ingest (InsertCtx/DeleteCtx/UpdateCtx) interleaves
// with snapshot-isolated queries. It is the serving-path counterpart of
// the frozen Engine — the paper's framework operated the way a
// production system runs it, with the database changing underneath the
// queries.
//
// # Shards
//
// A store is partitioned across N >= 1 shards, each holding its own
// R-tree over the objects a router (ShardFunc) assigned to it. The
// paper's complete-domination filter classifies each database object
// independently (core.ClassifyRole reads one object, the target and the
// reference), so a candidate's filter outcome over the whole database is
// the disjoint union of its outcomes over the shards: dominator and
// pruned counts add, influence sets concatenate, and the canonical
// (object ID) influence ordering of core makes the merged refinement
// input bit-identical to the monolithic one. The same holds for the
// preselection bounds: the global kNN threshold m_{k+1} is an order
// statistic computable from each shard's k+1 smallest MaxDist values,
// and the RkNN impossibility count is a sum of capped per-shard counts.
// A query on a multi-shard store therefore scatters its filter phase,
// merges the bounds and refines exactly once per surviving candidate:
// results are bit-identical at any shard count and any
// Options.Parallelism (the cross-shard equivalence suite enforces
// this). An unsharded store is simply the one-shard case, whose
// snapshot engines query the shard's R-tree directly.
//
// Everything that is not per shard exists once: the global database
// order, the ID map, the decomposition cache, the version, the watchers
// and the lock.
//
// # Snapshot isolation by copy-on-write
//
// Queries never lock out writers and writers never tear queries: a
// query binds to an immutable Snapshot (database slice + per-shard
// R-trees + decomposition cache) published under a read lock, and the
// first mutation after a snapshot was published detaches — it copies
// the object slice and clones the R-tree of the shard it mutates, then
// mutates the private copies. Consecutive mutations reuse the detached
// state, so a write burst pays one copy; consecutive queries reuse the
// published snapshot, so a read burst pays one publish. Every query
// therefore observes a database state that existed atomically — never
// a half-applied update — and returns results bit-identical to a fresh
// Engine built from that state.
//
// # Cross-query work reuse
//
// The store keeps one persistent, versioned core.DecompCache pinning
// the kd-tree decomposition of every database-resident object. Updates
// and deletes invalidate per object; queries read through a per-call
// overlay (query objects decompose into the overlay and die with it).
// Repeated queries against a stable database therefore stop
// re-splitting influence objects — the dominant shared work of the
// refinement loop.
//
// # Rebalancing
//
// Objects stay on the shard they were routed to at insert; Move and
// Rebalance migrate them online. A move changes no logical database
// state: versions, published change streams and every query result are
// unaffected — the shard router fuzzer enforces that moves never lose,
// duplicate, or re-verdict an object.
type Store struct {
	opts core.Options
	part ShardFunc

	mu      sync.RWMutex
	shards  []*shard
	db      uncertain.Database // global database order; detached from snapshots
	byID    map[int]*uncertain.Object
	home    map[int]int // object ID -> shard index; nil with one shard
	cache   *core.DecompCache
	version uint64
	snap    *Snapshot // published snapshot; nil after a mutation

	// obs is the store's query metric set; every snapshot engine the
	// store publishes records into it, so counts accumulate across
	// snapshots and mutations. Immutable after construction.
	obs *Metrics

	// journal, when non-nil, makes the store durable: every commit is
	// journaled on its shard before it is applied (see OpenStore).
	// closed rejects mutations after Close — they could no longer be
	// journaled.
	journal *storeJournal
	closed  bool

	watchers    []watcher
	nextWatcher int
}

// shard is the per-partition state of a store: the R-tree over the
// objects homed on it and its mutation epoch.
type shard struct {
	index *rtree.Tree[*uncertain.Object]
	// version counts every mutation applied to the shard, migrations
	// included; it is the shard's entry in a snapshot's version vector
	// and the epoch its journal records carry.
	version uint64
	// view is the published immutable view of the shard (nil after a
	// mutation); while set, index is shared with a snapshot and must be
	// cloned before it is mutated.
	view *shardView
}

// detach makes the shard's index private before a mutation.
func (sh *shard) detach() {
	if sh.view != nil {
		sh.index = sh.index.Clone()
		sh.view = nil
	}
}

// publish returns the immutable view of the shard's current state.
func (sh *shard) publish() *shardView {
	if sh.view == nil {
		sh.view = &shardView{index: sh.index, version: sh.version}
	}
	return sh.view
}

// ShardedOptions configures the shard layout of a store.
type ShardedOptions struct {
	// Shards is the shard count; <= 0 selects 1 (on reopen, the count
	// recorded in the store's manifest).
	Shards int
	// Partition routes objects to shards; nil selects HashShards.
	Partition ShardFunc
}

// NewStore builds a one-shard store over db (objects must have unique
// IDs; the slice is copied, the objects are shared and must not be
// mutated). The index is STR bulk-loaded in O(n log n). Opts configures
// every query the store serves, like Engine.Opts; Opts.SharedDecomps
// must be left unset — the store manages its own persistent cache.
func NewStore(db uncertain.Database, opts core.Options) (*Store, error) {
	return NewShardedStore(db, ShardedOptions{}, opts)
}

// NewShardedStore builds a store over db partitioned across
// sopts.Shards shards (see NewStore for the database contract). Shards
// are STR bulk-loaded concurrently.
func NewShardedStore(db uncertain.Database, sopts ShardedOptions, opts core.Options) (*Store, error) {
	if opts.SharedDecomps != nil {
		return nil, fmt.Errorf("store: Options.SharedDecomps must be unset (the store manages its own cache)")
	}
	s := newStore(sopts, opts, len(db))
	s.db = make(uncertain.Database, 0, len(db))
	for _, o := range db {
		if o == nil {
			return nil, fmt.Errorf("store: nil object")
		}
		if _, dup := s.byID[o.ID]; dup {
			return nil, fmt.Errorf("store: duplicate object ID %d", o.ID)
		}
		s.byID[o.ID] = o
		if s.home != nil {
			s.home[o.ID] = s.shardFor(o)
		}
		s.db = append(s.db, o)
		s.cache.Add(o)
	}
	s.buildIndexes()
	return s, nil
}

// newStore allocates an empty store skeleton with the given layout.
func newStore(sopts ShardedOptions, opts core.Options, capacity int) *Store {
	n := sopts.Shards
	if n <= 0 {
		n = 1
	}
	part := sopts.Partition
	if part == nil {
		part = HashShards
	}
	s := &Store{
		opts:   opts,
		part:   part,
		shards: make([]*shard, n),
		byID:   make(map[int]*uncertain.Object, capacity),
		cache:  core.NewDecompCache(opts.MaxHeight),
		obs:    NewMetrics(),
	}
	for i := range s.shards {
		s.shards[i] = &shard{}
	}
	if n > 1 {
		s.home = make(map[int]int, capacity)
	}
	return s
}

// buildIndexes STR bulk-loads every shard's R-tree from the global
// order; shards build concurrently.
func (s *Store) buildIndexes() {
	if len(s.shards) == 1 {
		s.shards[0].index = bulkIndex(s.db)
		return
	}
	parts := make([]uncertain.Database, len(s.shards))
	for _, o := range s.db {
		si := s.home[o.ID]
		parts[si] = append(parts[si], o)
	}
	n := len(s.shards)
	core.ForEach(context.Background(), n, n, func(i int) {
		s.shards[i].index = bulkIndex(parts[i])
	})
}

// shardFor routes an object, folding out-of-range partitioner results
// back into [0, n).
func (s *Store) shardFor(o *uncertain.Object) int {
	n := len(s.shards)
	i := s.part(o, n) % n
	if i < 0 {
		i += n
	}
	return i
}

// homeOf returns the home shard of a stored object.
func (s *Store) homeOf(id int) int {
	if s.home == nil {
		return 0
	}
	return s.home[id]
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// ShardSizes returns the current number of objects per shard.
func (s *Store) ShardSizes() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sizes := make([]int, len(s.shards))
	for i, sh := range s.shards {
		sizes[i] = sh.index.Len()
	}
	return sizes
}

// ShardOf returns the home shard of the object with the given ID.
func (s *Store) ShardOf(id int) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.byID[id]; !ok {
		return 0, false
	}
	return s.homeOf(id), true
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.db)
}

// Version returns the mutation epoch: it increments on every
// InsertCtx/DeleteCtx/UpdateCtx (migrations leave it untouched), and a
// Snapshot carries the epoch it was published at.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Get returns the stored object with the given ID.
func (s *Store) Get(id int) (*uncertain.Object, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.byID[id]
	return o, ok
}

// ChangeKind identifies the mutation a Change record describes.
type ChangeKind uint8

const (
	// ChangeInsert: a new object entered the database.
	ChangeInsert ChangeKind = iota + 1
	// ChangeUpdate: the object carrying an ID was replaced.
	ChangeUpdate
	// ChangeDelete: an object left the database.
	ChangeDelete
)

// String returns a short human-readable kind name.
func (k ChangeKind) String() string {
	switch k {
	case ChangeInsert:
		return "insert"
	case ChangeUpdate:
		return "update"
	case ChangeDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// Change is one committed store mutation, delivered to Watch callbacks.
// Old is nil for inserts, New is nil for deletes; updates carry both
// (same ID, distinct objects). Snap is the immutable database state
// WITH the change applied — Snap.Version() == Version — so a consumer
// replaying the change stream can evaluate every version exactly, even
// when it lags behind the store head; its version vector localizes the
// change to its shard.
type Change struct {
	Version  uint64
	Kind     ChangeKind
	Old, New *uncertain.Object
	Snap     *Snapshot
}

// watcher is one registered commit hook.
type watcher struct {
	id int
	fn func(Change)
}

// Watch registers a commit hook and returns, atomically with the
// registration, the snapshot of the current state: the callback will
// observe exactly the changes with Version > Snap.Version(), gaplessly
// and in version order. The returned stop function unregisters the
// hook.
//
// The callback runs synchronously inside the mutation, while the store
// lock is held: it must return quickly (hand the Change to a queue) and
// must not call back into the Store — package cq's Monitor is the
// intended consumer. While at least one watcher is registered every
// mutation publishes a snapshot, so a write burst pays one copy-on-write
// detach (an O(n/N) R-tree clone) per mutation instead of one per burst;
// that is the price of a gapless per-version change stream.
func (s *Store) Watch(fn func(Change)) (*Snapshot, func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextWatcher
	s.nextWatcher++
	s.watchers = append(s.watchers, watcher{id: id, fn: fn})
	stop := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, w := range s.watchers {
			if w.id == id {
				s.watchers = append(s.watchers[:i], s.watchers[i+1:]...)
				return
			}
		}
	}
	return s.snapshotLocked(), stop
}

// notifyLocked delivers a committed change to every watcher, in
// registration order. Requires s.mu held for writing, after the
// mutation was applied and the version incremented.
func (s *Store) notifyLocked(kind ChangeKind, old, new *uncertain.Object) {
	if len(s.watchers) == 0 {
		return
	}
	ch := Change{
		Version: s.version,
		Kind:    kind,
		Old:     old,
		New:     new,
		Snap:    s.snapshotLocked(),
	}
	for _, w := range s.watchers {
		w.fn(ch)
	}
}

// detachLocked makes the global object slice private again after a
// snapshot was published: the published snapshot keeps the old slice,
// mutations proceed on a copy. Shard indexes detach on their own, when
// a mutation touches them. Requires s.mu held for writing.
func (s *Store) detachLocked() {
	if s.snap == nil {
		return
	}
	db := make(uncertain.Database, len(s.db))
	copy(db, s.db)
	s.db = db
	s.snap = nil
}

// InsertCtx adds a new object, routing it to its partition shard; the
// ID must not be in use. The object is shared with the store and must
// not be mutated afterwards. On a durable store the commit is journaled
// before it is applied; a journaling error leaves the store unchanged.
// Under wal.SyncAlways the commit is acknowledged only once every
// commit up to and including it is covered by a group fsync on its
// shard — possibly a concurrent committer's fsync — waited for after
// the store lock is released, so committers share fsyncs instead of
// serializing on them. A group-fsync failure is reported after the
// commit was applied in memory; the journal wedges and every later
// commit on that shard fails.
//
// A trace attached to ctx via obs.WithTrace records the commit's
// durability wait (the span between journaling and the covering group
// fsyncs) as its WAL-wait phase. The context does not cancel the
// commit — a journaled commit always applies.
func (s *Store) InsertCtx(ctx context.Context, o *uncertain.Object) error {
	if o == nil {
		return fmt.Errorf("store: nil object")
	}
	s.mu.Lock()
	if _, dup := s.byID[o.ID]; dup {
		s.mu.Unlock()
		return fmt.Errorf("store: duplicate object ID %d", o.ID)
	}
	si := s.shardFor(o)
	ack, err := s.journalLocked(si, wal.Record{Op: wal.OpInsert, Global: s.version + 1, Obj: o})
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.detachLocked()
	s.db = append(s.db, o)
	s.byID[o.ID] = o
	if s.home != nil {
		s.home[o.ID] = si
	}
	s.cache.Add(o)
	s.shardInsertLocked(si, o)
	s.version++
	s.notifyLocked(ChangeInsert, nil, o)
	s.maybeCheckpointLocked()
	sj := s.journal
	s.mu.Unlock()
	return sj.waitDurable(ctx, ack)
}

// shardInsertLocked links o into shard si's index. Requires s.mu held
// for writing.
func (s *Store) shardInsertLocked(si int, o *uncertain.Object) {
	sh := s.shards[si]
	sh.detach()
	sh.index.Insert(o.MBR, o)
	sh.version++
}

// shardDeleteLocked unlinks o from shard si's index. Requires s.mu held
// for writing.
func (s *Store) shardDeleteLocked(si int, o *uncertain.Object) {
	sh := s.shards[si]
	sh.detach()
	sh.index.Delete(o.MBR, o)
	sh.version++
}

// DeleteCtx removes the object with the given ID: ok reports whether
// the ID was stored, err a failure to journal the commit. The store is
// unchanged when err != nil, except a group-fsync failure under
// wal.SyncAlways, which is reported after the commit was applied in
// memory (ok stays true and the journal wedges). ctx carries an
// optional trace (see InsertCtx).
func (s *Store) DeleteCtx(ctx context.Context, id int) (bool, error) {
	s.mu.Lock()
	o, ok := s.byID[id]
	if !ok {
		s.mu.Unlock()
		return false, nil
	}
	si := s.homeOf(id)
	ack, err := s.journalLocked(si, wal.Record{Op: wal.OpDelete, Global: s.version + 1, ID: id})
	if err != nil {
		s.mu.Unlock()
		return false, err
	}
	s.detachLocked()
	for i, x := range s.db {
		if x == o {
			s.db = append(s.db[:i], s.db[i+1:]...)
			break
		}
	}
	delete(s.byID, id)
	delete(s.home, id)
	s.cache.Invalidate(o)
	s.shardDeleteLocked(si, o)
	s.version++
	s.notifyLocked(ChangeDelete, o, nil)
	s.maybeCheckpointLocked()
	sj := s.journal
	s.mu.Unlock()
	return true, sj.waitDurable(ctx, ack)
}

// UpdateCtx atomically replaces the object carrying o.ID with o: no
// query ever observes the database with the old object gone and the
// new one missing, or with both present. It returns an error when the
// ID is not stored (use InsertCtx for new objects). The object keeps
// its home shard (and its database-order position) even when the
// partitioner would now route it elsewhere — use Rebalance to re-home
// drifted objects. ctx carries an optional trace (see InsertCtx).
func (s *Store) UpdateCtx(ctx context.Context, o *uncertain.Object) error {
	if o == nil {
		return fmt.Errorf("store: nil object")
	}
	s.mu.Lock()
	old, ok := s.byID[o.ID]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("store: update of unknown object ID %d", o.ID)
	}
	si := s.homeOf(o.ID)
	ack, err := s.journalLocked(si, wal.Record{Op: wal.OpUpdate, Global: s.version + 1, Obj: o})
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.detachLocked()
	// Replace the slot in place: the object keeps its database-order
	// position (query results are in database order) and the update
	// avoids the O(n) slice shift of a remove-and-append.
	for i, x := range s.db {
		if x == old {
			s.db[i] = o
			break
		}
	}
	s.byID[o.ID] = o
	s.cache.Invalidate(old)
	s.cache.Add(o)
	sh := s.shards[si]
	sh.detach()
	sh.index.Delete(old.MBR, old)
	sh.index.Insert(o.MBR, o)
	sh.version++
	s.version++
	s.notifyLocked(ChangeUpdate, old, o)
	s.maybeCheckpointLocked()
	sj := s.journal
	s.mu.Unlock()
	return sj.waitDurable(ctx, ack)
}

// Snapshot publishes (or returns the already-published) immutable view
// of the current database state: the global-order object slice plus one
// immutable view per shard, all taken at the same epoch. Snapshots stay
// valid — and their queries consistent — regardless of later mutations.
func (s *Store) Snapshot() *Snapshot {
	s.mu.RLock()
	snap := s.snap
	s.mu.RUnlock()
	if snap != nil {
		return snap
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

// snapshotLocked publishes (or returns) the snapshot of the current
// state. Requires s.mu held for writing.
func (s *Store) snapshotLocked() *Snapshot {
	if s.snap == nil {
		views := make([]*shardView, len(s.shards))
		for i, sh := range s.shards {
			views[i] = sh.publish()
		}
		s.snap = &Snapshot{
			db:      s.db,
			shards:  views,
			version: s.version,
			opts:    s.opts,
			cache:   s.cache,
			obs:     s.obs,
		}
	}
	return s.snap
}

// Metrics returns the store's query metric set: per-kind latency
// histograms and filter-economy counters accumulated across every
// snapshot engine the store has published. See Metrics.Snapshot for the
// flat map the server surfaces.
func (s *Store) Metrics() *Metrics { return s.obs }

// SetRecorder arms (or, with nil, disarms) the store's flight
// recorder: slow queries above the SetSlowQueryThreshold record their
// trace anatomy, and a durable store's checkpoint lifecycle and
// durability events (pin, install, supersede, group-commit batches,
// fsync stalls, deferred errors) flow into the same ring. Safe to call
// while the store serves.
func (s *Store) SetRecorder(rec *obs.Recorder) {
	s.obs.SetRecorder(rec)
	s.mu.RLock()
	sj := s.journal
	s.mu.RUnlock()
	sj.setRecorder(rec)
}

// SetSlowQueryThreshold arms the flight-recorder slow-query capture
// (see Metrics.SetSlowQueryThreshold). <= 0 disarms.
func (s *Store) SetSlowQueryThreshold(d time.Duration) {
	s.obs.SetSlowQueryThreshold(d)
}

// WALStats returns the journal metrics of a durable store
// (append/fsync/checkpoint counts and latencies), merged across the
// shard journals; ok is false on an in-memory store.
func (s *Store) WALStats() (wal.MetricsSnapshot, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.journal == nil {
		return wal.MetricsSnapshot{}, false
	}
	var out wal.MetricsSnapshot
	for _, j := range s.journal.wals {
		out.Merge(j.MetricsSnapshot())
	}
	return out, true
}

// shardView is one shard's immutable state inside a Snapshot.
type shardView struct {
	index   *rtree.Tree[*uncertain.Object]
	version uint64

	// Shard-stats cache (statsOnce): the index root MBR and whether
	// every resident object certainly exists. The scatter-gather plane
	// probes these once per view to decide whole shards wholesale — the
	// view is immutable, so the answers never go stale.
	statsOnce  sync.Once
	rootMBR    geom.Rect
	nonEmpty   bool
	allCertain bool
}

// stats returns the cached root MBR, the all-certain flag and whether
// the shard is non-empty.
func (v *shardView) stats() (geom.Rect, bool, bool) {
	v.statsOnce.Do(func() {
		v.rootMBR, v.nonEmpty = v.index.Bounds()
		v.allCertain = true
		v.index.All(func(_ geom.Rect, o *uncertain.Object) {
			if o.ExistenceProb() < 1 {
				v.allCertain = false
			}
		})
	})
	return v.rootMBR, v.allCertain, v.nonEmpty
}

// Snapshot is one immutable, consistent database state published by a
// Store: the global-order object slice, one R-tree per shard, the store
// epoch and the per-shard version vector. All queries on one snapshot
// see exactly the same objects and share the store's persistent
// decomposition cache through one overlay.
type Snapshot struct {
	db      uncertain.Database
	shards  []*shardView
	version uint64
	opts    core.Options
	cache   *core.DecompCache
	obs     *Metrics

	engineOnce sync.Once
	engine     *Engine
}

// Version returns the store mutation epoch the snapshot was published
// at.
func (sn *Snapshot) Version() uint64 { return sn.version }

// VersionVector returns a copy of the per-shard versions at the cut —
// the cursor a change-stream consumer uses to localize a change to the
// one shard that advanced.
func (sn *Snapshot) VersionVector() []uint64 {
	vv := make([]uint64, len(sn.shards))
	for i, v := range sn.shards {
		vv[i] = v.version
	}
	return vv
}

// NumShards returns the shard count.
func (sn *Snapshot) NumShards() int { return len(sn.shards) }

// Shard returns the immutable one-shard snapshot of shard i: its
// objects in global order, its R-tree, and its shard version as the
// snapshot version. On a one-shard snapshot it is the snapshot itself.
func (sn *Snapshot) Shard(i int) *Snapshot {
	if len(sn.shards) == 1 {
		return sn
	}
	v := sn.shards[i]
	in := make(map[*uncertain.Object]bool, v.index.Len())
	v.index.All(func(_ geom.Rect, o *uncertain.Object) { in[o] = true })
	db := make(uncertain.Database, 0, len(in))
	for _, o := range sn.db {
		if in[o] {
			db = append(db, o)
		}
	}
	return &Snapshot{db: db, shards: []*shardView{v}, version: v.version, opts: sn.opts, cache: sn.cache, obs: sn.obs}
}

// Len returns the number of objects in the snapshot.
func (sn *Snapshot) Len() int { return len(sn.db) }

// DB returns a copy of the snapshot's object slice in global database
// order (the objects are shared and must be treated as read-only).
func (sn *Snapshot) DB() uncertain.Database {
	db := make(uncertain.Database, len(sn.db))
	copy(db, sn.db)
	return db
}

// Engine returns the snapshot-bound query engine. All queries issued on
// it evaluate against this snapshot's state and reuse the store's
// persistent decomposition cache (through per-query overlays); results
// are bit-identical to a fresh Engine built from the same state, at any
// shard count and any Parallelism. A one-shard snapshot's engine
// queries the shard's R-tree directly (Engine.Index); a multi-shard
// one installs the scatter-gather plane: the candidate set comes from
// the global-order slice, filter bounds are computed per shard and
// merged canonically, refinement runs once per surviving candidate.
func (sn *Snapshot) Engine() *Engine {
	sn.engineOnce.Do(func() {
		opts := sn.opts
		opts.SharedDecomps = sn.cache
		sn.engine = &Engine{DB: sn.db, Opts: opts, Obs: sn.obs}
		if len(sn.shards) == 1 {
			sn.engine.Index = sn.shards[0].index
		} else {
			sn.engine.plane = &shardPlane{shards: sn.shards}
		}
	})
	return sn.engine
}

// Store query methods: each binds to the current snapshot and delegates
// to the snapshot engine, so concurrent mutations never affect a query
// in flight.

// KNN is KNNCtx without cancellation.
func (s *Store) KNN(q *uncertain.Object, k int, tau float64) []Match {
	matches, _ := s.KNNCtx(context.Background(), q, k, tau) // never cancelled: no error
	return matches
}

// KNNCtx answers the probabilistic threshold kNN query on the current
// snapshot (see Engine.KNNCtx).
func (s *Store) KNNCtx(ctx context.Context, q *uncertain.Object, k int, tau float64) ([]Match, error) {
	return s.Snapshot().Engine().KNNCtx(ctx, q, k, tau)
}

// RKNNCtx answers the probabilistic threshold reverse kNN query on the
// current snapshot (see Engine.RKNNCtx).
func (s *Store) RKNNCtx(ctx context.Context, q *uncertain.Object, k int, tau float64) ([]Match, error) {
	return s.Snapshot().Engine().RKNNCtx(ctx, q, k, tau)
}

// TopKNNCtx answers the top-m probable kNN query on the current
// snapshot (see Engine.TopKNNCtx).
func (s *Store) TopKNNCtx(ctx context.Context, q *uncertain.Object, k, m int) ([]Match, error) {
	return s.Snapshot().Engine().TopKNNCtx(ctx, q, k, m)
}

// InverseRank computes the probabilistic inverse ranking on the current
// snapshot (see Engine.InverseRank).
func (s *Store) InverseRank(b, r *uncertain.Object) *RankDistribution {
	return s.Snapshot().Engine().InverseRank(b, r)
}

// RankByExpectedRankCtx ranks the current snapshot by expected rank
// (see Engine.RankByExpectedRankCtx).
func (s *Store) RankByExpectedRankCtx(ctx context.Context, q *uncertain.Object) ([]Ranked, error) {
	return s.Snapshot().Engine().RankByExpectedRankCtx(ctx, q)
}

// UKRanksCtx computes the U-kRanks winners on the current snapshot
// (see Engine.UKRanksCtx).
func (s *Store) UKRanksCtx(ctx context.Context, q *uncertain.Object, k int) ([]RankWinner, error) {
	return s.Snapshot().Engine().UKRanksCtx(ctx, q, k)
}

// BatchCtx runs fn against an engine bound to one snapshot: every query
// fn issues sees the same database state and reuses the store's
// persistent decomposition cache (each query reads it through its own
// overlay, so database-resident objects are shared, query objects are
// not). Use it to evaluate a mixed query batch atomically; for many kNN
// queries, BatchKNN additionally pools the candidate runs. fn receives
// the context along with the snapshot-bound engine and is expected to
// thread it through the queries it issues. BatchCtx returns ctx.Err()
// without invoking fn when the context is already done, and otherwise
// returns whatever fn returns — typically the first query error, which
// is ctx.Err() when a query inside the batch was cancelled.
func (s *Store) BatchCtx(ctx context.Context, fn func(context.Context, *Engine) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return fn(ctx, s.Snapshot().Engine())
}

// KNNRequest is one query of a BatchKNN call.
type KNNRequest struct {
	// Q is the query reference object.
	Q *uncertain.Object
	// K is the kNN parameter.
	K int
	// Tau is the probability threshold.
	Tau float64
}

// BatchKNN evaluates many kNN queries on ONE snapshot: the candidate
// IDCA runs of all requests are poured into a single worker pool
// (Options.Parallelism workers total, not per query) and share one
// decomposition cache overlay, so common influence objects and repeated
// query objects are decomposed once for the whole batch. Results[i]
// corresponds to reqs[i] and is bit-identical to Store.KNNCtx(reqs[i])
// issued against the same snapshot.
func (s *Store) BatchKNN(ctx context.Context, reqs []KNNRequest) ([][]Match, error) {
	return s.Snapshot().BatchKNN(ctx, reqs)
}

// BatchKNN is Store.BatchKNN pinned to this snapshot.
func (sn *Snapshot) BatchKNN(ctx context.Context, reqs []KNNRequest) ([][]Match, error) {
	e := sn.Engine()
	tr, pooled := e.Obs.traceFor(ctx)
	start := time.Now()
	// One cache overlay for the whole batch: influence objects come from
	// the persistent store cache, repeated query objects are decomposed
	// once per batch. Preparation (candidate scan + preselection
	// traversal per request) runs on the pool too — it only reads the
	// snapshot — so a large batch has no serial prefix.
	cache := e.queryCache()
	jobs := make([]*knnJob, len(reqs))
	if err := core.ForEach(ctx, e.parallelism(), len(reqs), func(i int) {
		jobs[i] = e.newKNNJob(reqs[i].Q, reqs[i].K, reqs[i].Tau, cache)
	}); err != nil {
		return nil, err
	}
	total := 0
	for _, j := range jobs {
		j.tr = tr
		total += len(j.cands)
	}
	tr.AddCandidates(total)
	e.Obs.countCandidates(total)
	tr.AddPrepare(time.Since(start))
	evalStart := time.Now()
	// Flatten every request's candidates into one index space and run
	// them on a single pool: small queries do not serialize behind big
	// ones, and the pool never idles while work remains.
	flat := make([]func(), 0, total)
	for _, j := range jobs {
		j := j
		for i := range j.cands {
			i := i
			flat = append(flat, func() { j.eval(i) })
		}
	}
	if err := core.ForEach(ctx, e.parallelism(), len(flat), func(i int) { flat[i]() }); err != nil {
		return nil, err
	}
	tr.AddEval(time.Since(evalStart))
	recordCache(e.Obs, tr, cache)
	e.Obs.observe(kindBatchKNN, start, tr, pooled)
	out := make([][]Match, len(jobs))
	for i, j := range jobs {
		out[i] = j.matches
	}
	return out, nil
}
