package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"probprune/internal/core"
	"probprune/internal/obs"
	"probprune/internal/uncertain"
	"probprune/internal/wal"
)

// PersistOptions configures the durability of a store opened with
// OpenStore/BootstrapStore (or their sharded variants): where the
// journals live, when they are fsynced, and when the logs are compacted
// into a checkpoint.
type PersistOptions struct {
	// Dir is the store directory (created if absent). It holds a
	// MANIFEST carrying the store epoch, the version vector and the
	// global order, plus one journal subdirectory per shard (shard-0,
	// shard-1, ...); while a bootstrap runs, also a BOOTSTRAP marker.
	Dir string
	// Sync is the fsync policy for journaled commits; the zero value is
	// wal.SyncOS (no explicit fsync).
	Sync wal.SyncPolicy
	// SyncEvery is the wal.SyncBackground flush interval; <= 0 selects
	// one second.
	SyncEvery time.Duration
	// CheckpointEvery writes a checkpoint (and truncates the logs)
	// automatically once that many records accumulated since the last
	// one; 0 disables auto-checkpointing (call Checkpoint explicitly).
	CheckpointEvery int
	// SegmentBytes is the log segment rotation threshold; <= 0 selects
	// wal.DefaultSegmentBytes.
	SegmentBytes int64
}

func (p PersistOptions) wal() wal.Options {
	return wal.Options{Sync: p.Sync, SyncEvery: p.SyncEvery, SegmentBytes: p.SegmentBytes}
}

// manifestName is the store-level durable state file of a store
// directory; its install is the commit point of every checkpoint.
const manifestName = "MANIFEST"

// shardDir is the journal directory of shard i.
func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d", i))
}

// storeJournal is the durability state a durable Store carries: one
// write-ahead log per shard plus the manifest and checkpoint policy.
// The commit path appends to its shard's log under the store lock and
// waits for (group) durability only after releasing it; checkpoints are
// pinned under the store lock — an O(1) rotation per shard log plus a
// copy-on-write reference of the state — and encoded/installed by the
// background scheduler, so neither fsyncs nor checkpoint serialization
// ever stall concurrent committers.
type storeJournal struct {
	dir             string
	checkpointEvery int
	syncAlways      bool
	wals            []*wal.Journal // shard i's log

	// lastSeq[i] is the append sequence of shard i's newest record.
	// Guarded by the store lock.
	lastSeq []uint64

	// installMu serializes checkpoint installs (the background
	// scheduler and synchronous Checkpoint calls); installedVersion
	// (guarded by it) keeps a late older install from regressing the
	// manifest below an already-installed newer one — the shard logs
	// past an older manifest epoch are truncated by the newer shard
	// checkpoints, so a regressed manifest would be unrecoverable.
	installMu        sync.Mutex
	installedVersion uint64

	sched *ckptScheduler

	// rec is the armed flight recorder (nil when disarmed): checkpoint
	// lifecycle and deferred durability errors record into it, and
	// setRecorder forwards it to the shard logs for group-commit and
	// fsync-stall events. Atomic so arming is safe mid-serving.
	rec atomic.Pointer[obs.Recorder]

	emu     sync.Mutex // guards ckptErr (the scheduler writes it off the store lock)
	ckptErr error      // first deferred durability failure (auto-checkpoint, rebalance)
}

func newStoreJournal(popts PersistOptions, wals []*wal.Journal, m *Metrics) *storeJournal {
	sj := &storeJournal{
		dir:             popts.Dir,
		checkpointEvery: popts.CheckpointEvery,
		syncAlways:      popts.Sync == wal.SyncAlways,
		wals:            wals,
		lastSeq:         make([]uint64, len(wals)),
	}
	sj.sched = newCkptScheduler(sj.noteCkptErr)
	sj.sched.events = sj.recorder
	sj.sched.queue = m.ckptQueue
	sj.sched.merged = m.ckptMerged
	return sj
}

// setRecorder arms (or disarms, with nil) the journal's flight-recorder
// event sources, including the shard logs'. Nil-safe (in-memory
// store).
func (sj *storeJournal) setRecorder(rec *obs.Recorder) {
	if sj == nil {
		return
	}
	sj.rec.Store(rec)
	for _, j := range sj.wals {
		j.SetRecorder(rec)
	}
}

// recorder returns the armed recorder, nil when disarmed (nil-safe).
func (sj *storeJournal) recorder() *obs.Recorder {
	if sj == nil {
		return nil
	}
	return sj.rec.Load()
}

// noteCkptErr records a deferred durability failure (keeping the
// first).
func (sj *storeJournal) noteCkptErr(err error) {
	sj.emu.Lock()
	if sj.ckptErr == nil {
		sj.ckptErr = err
	}
	sj.emu.Unlock()
	// Cold path: registering the error text as a note may lock and
	// allocate, which a failure path can afford.
	if r := sj.recorder(); r != nil {
		r.Record(obs.EvDeferredError, r.Note(err.Error()), 0, 0, 0)
	}
}

// takeCkptErr returns and clears the deferred durability failure.
func (sj *storeJournal) takeCkptErr() error {
	sj.emu.Lock()
	err := sj.ckptErr
	sj.ckptErr = nil
	sj.emu.Unlock()
	return err
}

// closeLogs releases shard logs, returning the first error.
func closeLogs(wals []*wal.Journal) error {
	var err error
	for _, j := range wals {
		if cerr := j.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// waitDurable is the post-lock durability wait of a commit: ack holds,
// per shard, the newest record appended up to the commit, so the commit
// is acknowledged once every commit with an equal or smaller store
// epoch is covered by a group fsync on its own shard — recovery never
// meets a gap in the epochs of acknowledged commits. The wait is
// measured into the context's trace (when one is attached) as the
// WAL-wait phase; tracing never changes commit semantics. Nil-safe: an
// in-memory store, or a policy without fsync-on-acknowledge, passes a
// nil ack.
func (sj *storeJournal) waitDurable(ctx context.Context, ack []uint64) error {
	if ack == nil {
		return nil
	}
	tr := obs.TraceFrom(ctx)
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	var err error
	for i, seq := range ack {
		if werr := sj.wals[i].WaitDurable(seq); err == nil {
			err = werr
		}
	}
	if tr != nil {
		tr.AddWALWait(time.Since(start))
	}
	return err
}

// journalLocked journals one commit record on shard si before it is
// applied, stamping it with the shard epoch, and returns the commit's
// durability ticket for waitDurable (nil when there is nothing to wait
// for). A deferred durability failure is surfaced here — the commit
// that observes it is rejected (the store unchanged) and the error
// cleared, so the caller learns about the degraded durability at the
// next mutation instead of only at Close. Requires s.mu held for
// writing.
func (s *Store) journalLocked(si int, rec wal.Record) ([]uint64, error) {
	if s.closed {
		return nil, fmt.Errorf("store: closed")
	}
	sj := s.journal
	if sj == nil {
		return nil, nil
	}
	if err := sj.takeCkptErr(); err != nil {
		return nil, fmt.Errorf("store: deferred auto-checkpoint failure: %w", err)
	}
	rec.Version = s.shards[si].version + 1
	seq, err := sj.wals[si].AppendAsync(rec)
	if err != nil {
		return nil, err
	}
	sj.lastSeq[si] = seq
	if !sj.syncAlways {
		return nil, nil
	}
	return append([]uint64(nil), sj.lastSeq...), nil
}

// ckptJob is one pinned checkpoint awaiting its background encode and
// install: the manifest plus every shard's pin and state.
type ckptJob struct {
	m    *wal.Manifest
	pins []wal.CheckpointPin
	cks  []*wal.Checkpoint
}

// maybeCheckpointLocked runs the auto-checkpoint policy after a commit:
// when the threshold is reached the state is pinned here (the bounded,
// O(db copy) part) and the encode + install handed to the background
// scheduler. A checkpoint failure does not fail a commit (the commit is
// already durable in the log); it is deferred and surfaced by the next
// mutation or Sync — or by Close, whichever comes first. Requires s.mu
// held for writing.
func (s *Store) maybeCheckpointLocked() {
	sj := s.journal
	if sj == nil || sj.checkpointEvery <= 0 {
		return
	}
	var since uint64
	for _, j := range sj.wals {
		since += j.AppendedSinceCheckpoint()
	}
	if since < uint64(sj.checkpointEvery) {
		return
	}
	job, err := s.pinCheckpointLocked()
	if err != nil {
		sj.noteCkptErr(err)
		return
	}
	sj.sched.submit(func() error { return sj.install(job) })
}

// pinCheckpointLocked pins the store's current state for a checkpoint:
// every shard log rotates (O(1) each), and the manifest (epoch, version
// vector, global order, cache epoch) plus each shard's objects and
// their materialized decompositions are captured copy-on-write —
// objects and published decomposition levels are immutable, so the
// background install serializes them without the lock while commits
// proceed. Every object and every decomposition is captured once, in
// its home shard's checkpoint. This is the entire commit-path cost of a
// checkpoint. Requires s.mu held for writing.
func (s *Store) pinCheckpointLocked() (*ckptJob, error) {
	sj := s.journal
	n := len(s.shards)
	job := &ckptJob{
		m: &wal.Manifest{
			Version:      s.version,
			Shards:       n,
			VV:           make([]uint64, n),
			Order:        make([]int, len(s.db)),
			CacheVersion: s.cache.Version(),
		},
		pins: make([]wal.CheckpointPin, n),
		cks:  make([]*wal.Checkpoint, n),
	}
	for i, sh := range s.shards {
		pin, err := sj.wals[i].BeginCheckpoint()
		if err != nil {
			return nil, err
		}
		job.pins[i] = pin
		job.m.VV[i] = sh.version
		size := sh.index.Len()
		job.cks[i] = &wal.Checkpoint{
			Version:      sh.version,
			Objects:      make([]*uncertain.Object, 0, size),
			Decomp:       make([][][]uncertain.Partition, 0, size),
			CacheVersion: job.m.CacheVersion,
		}
	}
	for i, o := range s.db {
		job.m.Order[i] = o.ID
		ck := job.cks[s.homeOf(o.ID)]
		ck.Objects = append(ck.Objects, o)
		ck.Decomp = append(ck.Decomp, s.cache.Materialized(o))
	}
	// Lock-free, allocation-free record: the pin runs on the commit path
	// under s.mu, which the recorder never stalls.
	sj.recorder().Record(obs.EvCheckpointBegin, 0, 0, int64(s.version), 0)
	return job, nil
}

// install writes one pinned checkpoint: the manifest first (the commit
// point recovery trusts), then every shard's checkpoint, truncating the
// shard logs. A crash between the two leaves the manifest current and
// some shard logs long — recovery replays the surplus records into
// states the manifest already describes, landing on the same head. A
// job older than an already-installed one, or a shard pin a newer
// install overtook, is skipped as superseded.
func (sj *storeJournal) install(job *ckptJob) error {
	sj.installMu.Lock()
	defer sj.installMu.Unlock()
	if job.m.Version < sj.installedVersion {
		sj.recorder().Record(obs.EvCheckpointSupersede, 0, 0, int64(job.m.Version), 0)
		return nil
	}
	start := time.Now()
	if err := wal.SaveManifest(filepath.Join(sj.dir, manifestName), job.m); err != nil {
		return err
	}
	sj.installedVersion = job.m.Version
	for i, j := range sj.wals {
		err := j.InstallCheckpoint(job.pins[i], job.cks[i])
		if errors.Is(err, wal.ErrCheckpointSuperseded) {
			sj.recorder().Record(obs.EvCheckpointSupersede, 0, 0, int64(job.m.Version), 0)
			continue
		}
		if err != nil {
			return err
		}
	}
	sj.recorder().Record(obs.EvCheckpointInstall, 0, time.Since(start), int64(job.m.Version), 0)
	return nil
}

// drainCheckpoints waits until no background checkpoint install is
// pending or running — the quiesce point Sync and Close use, exposed
// in-package for tests that need a stable directory image or a
// deterministic deferred-error observation.
func (s *Store) drainCheckpoints() {
	if s.journal != nil {
		s.journal.sched.drain()
	}
}

// Checkpoint durably snapshots the store's current state — the manifest
// (epoch, version vector, global order) plus one checkpoint per shard
// carrying its objects and their materialized decompositions — and
// truncates every shard log to it. Reopening afterwards loads the
// snapshot and replays only commits journaled since. The state is
// pinned under the store lock but encoded and installed outside it, so
// concurrent commits are never stalled by the write.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	if s.journal == nil {
		s.mu.Unlock()
		return fmt.Errorf("store: not durable (no journal)")
	}
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("store: closed")
	}
	sj := s.journal
	job, err := s.pinCheckpointLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return sj.install(job)
}

// Sync forces journaled commits to stable storage, regardless of the
// sync policy. It first drains any in-flight background checkpoint and
// surfaces (and clears) a deferred durability failure, so a caller that
// never mutates again still learns the checkpoint did not land. It is a
// no-op on an in-memory store.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil || s.closed {
		return nil
	}
	s.journal.sched.drain()
	if err := s.journal.takeCkptErr(); err != nil {
		return fmt.Errorf("store: deferred auto-checkpoint failure: %w", err)
	}
	for _, j := range s.journal.wals {
		if err := j.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the journals of a durable store, draining any
// in-flight background checkpoint first. Mutations fail after Close
// (they could no longer be journaled); snapshots and queries remain
// usable. The on-disk state stays fully recoverable — Close writes no
// checkpoint, reopening replays the log tails. Closing an in-memory
// store is a no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil || s.closed {
		return nil
	}
	s.closed = true
	s.journal.sched.drain()
	err := s.journal.takeCkptErr()
	if cerr := closeLogs(s.journal.wals); err == nil {
		err = cerr
	}
	return err
}

// BootstrapStore creates a NEW durable one-shard store over db at
// popts.Dir, writing the initial database as the first checkpoint. It
// fails when the directory already holds a store — recover that with
// OpenStore instead (an explicit choice, so a typo cannot silently
// shadow an existing database with a fresh one).
func BootstrapStore(db uncertain.Database, popts PersistOptions, opts core.Options) (*Store, error) {
	return BootstrapShardedStore(db, popts, ShardedOptions{}, opts)
}

// BootstrapShardedStore creates a NEW durable store over db at
// popts.Dir with sopts' shard layout: one journal per shard, each
// starting from its partition's checkpoint, plus the manifest. Each
// object is written once. It fails when the directory already holds a
// store (use OpenShardedStore).
func BootstrapShardedStore(db uncertain.Database, popts PersistOptions, sopts ShardedOptions, opts core.Options) (*Store, error) {
	s, job, err := prepareBootstrap(db, popts, sopts, opts)
	if err != nil {
		return nil, err
	}
	if err := s.journal.installGenesis(job); err != nil {
		closeLogs(s.journal.wals)
		return nil, err
	}
	return s, nil
}

// bootstrapMarker is the file a bootstrap holds in the store directory
// from before it creates the first shard journal until its manifest
// lands. Shard journals next to it and no manifest are the debris of a
// bootstrap that crashed before its commit point; shard journals with
// neither file are data whose manifest was lost, which is never
// deleted.
const bootstrapMarker = "BOOTSTRAP"

// prepareBootstrap checks popts.Dir is free for a new store (clearing
// the debris of an interrupted bootstrap), marks the bootstrap in
// progress, and returns the store over db with fresh shard journals
// attached and its genesis checkpoint pinned for installGenesis.
func prepareBootstrap(db uncertain.Database, popts PersistOptions, sopts ShardedOptions, opts core.Options) (*Store, *ckptJob, error) {
	if m, err := wal.LoadManifest(filepath.Join(popts.Dir, manifestName)); err != nil {
		return nil, nil, err
	} else if m != nil {
		return nil, nil, fmt.Errorf("store: %s already holds a journal (open it instead of bootstrapping)", popts.Dir)
	}
	if legacy, _ := filepath.Glob(filepath.Join(popts.Dir, "wal-*.log")); len(legacy) > 0 {
		return nil, nil, fmt.Errorf("store: %s holds an unsharded journal written by an older build, which cannot be reopened", popts.Dir)
	}
	stale, _ := filepath.Glob(filepath.Join(popts.Dir, "shard-*"))
	if _, err := os.Stat(filepath.Join(popts.Dir, bootstrapMarker)); err == nil {
		for _, dir := range stale {
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, fmt.Errorf("store: clearing an interrupted bootstrap: %w", err)
			}
		}
	} else {
		for _, dir := range stale {
			if has, err := journalHasData(dir); err != nil {
				return nil, nil, err
			} else if has {
				return nil, nil, fmt.Errorf("store: %s holds shard journals but no %s (restore the manifest, or move the directory away)", popts.Dir, manifestName)
			}
		}
	}
	s, err := NewShardedStore(db, sopts, opts)
	if err != nil {
		return nil, nil, err
	}
	if err := createDurable(filepath.Join(popts.Dir, bootstrapMarker)); err != nil {
		return nil, nil, err
	}
	wals := make([]*wal.Journal, 0, len(s.shards))
	for i := range s.shards {
		j, err := newEmptyJournal(shardDir(popts.Dir, i), popts)
		if err != nil {
			closeLogs(wals)
			return nil, nil, err
		}
		wals = append(wals, j)
	}
	s.journal = newStoreJournal(popts, wals, s.obs)
	job, err := s.pinCheckpointLocked()
	if err != nil {
		closeLogs(wals)
		return nil, nil, err
	}
	return s, job, nil
}

// installGenesis makes a bootstrap's pinned genesis state durable before
// the store accepts a commit, in the reverse order of install: every
// shard's checkpoint first, then the manifest — the commit point of the
// bootstrap — and last the bootstrap marker is removed. Each object is
// written once, in its home shard's checkpoint. A marker that outlives
// the manifest (a crash right after it landed) is removed at open.
func (sj *storeJournal) installGenesis(job *ckptJob) error {
	for i, j := range sj.wals {
		if err := j.InstallCheckpoint(job.pins[i], job.cks[i]); err != nil {
			return err
		}
	}
	if err := wal.SaveManifest(filepath.Join(sj.dir, manifestName), job.m); err != nil {
		return err
	}
	sj.installedVersion = job.m.Version
	return os.Remove(filepath.Join(sj.dir, bootstrapMarker))
}

// createDurable creates the empty file path (and its directory) and
// fsyncs both, so the file survives a crash that follows.
func createDurable(path string) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		var d *os.File
		if d, err = os.Open(dir); err == nil {
			err = d.Sync()
			d.Close()
		}
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// journalHasData reports whether journal directory dir holds a
// checkpoint or an intact record.
func journalHasData(dir string) (bool, error) {
	j, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return false, err
	}
	defer j.Close()
	return j.HasData()
}

// newEmptyJournal opens dir and verifies it holds no journal yet. The
// emptiness probe stops at the first checkpoint or intact record
// instead of replaying the whole log — rejecting a bootstrap over an
// existing database costs one read, however long its history.
func newEmptyJournal(dir string, popts PersistOptions) (*wal.Journal, error) {
	j, err := wal.Open(dir, popts.wal())
	if err != nil {
		return nil, err
	}
	has, err := j.HasData()
	if err != nil {
		j.Close()
		return nil, err
	}
	if has {
		j.Close()
		return nil, fmt.Errorf("store: %s already holds a journal (open it instead of bootstrapping)", dir)
	}
	// Replay positions the (empty) journal for appending.
	if err := j.Replay(nil); err != nil {
		j.Close()
		return nil, err
	}
	return j, nil
}

// OpenStore opens (or initializes) a durable store rooted at
// popts.Dir, with the shard count its manifest records (a fresh
// directory starts a one-shard store). See OpenShardedStore.
func OpenStore(popts PersistOptions, opts core.Options) (*Store, error) {
	return OpenShardedStore(popts, ShardedOptions{}, opts)
}

// OpenShardedStore opens (or initializes) a durable store rooted at
// popts.Dir. A fresh directory is bootstrapped empty with sopts'
// layout. An existing one is recovered: every shard loads its newest
// checkpoint — objects AND every decomposition the crashed process had
// materialized — and reads its log tail in parallel, stopping cleanly
// at the last intact record, and the store rebuilds its global order by
// merging the shards' logical records — keyed by the store epoch each
// record carries — on top of the manifest's order. The recovered store
// is bit-identical to the one that wrote the journals: same versions,
// same version vector, same database order, same query answers.
// Opts must match the options the journals were written under and
// sopts.Partition the partitioner (neither is persisted);
// sopts.Shards, when non-zero, is validated against the manifest;
// opts.SharedDecomps must be left unset.
func OpenShardedStore(popts PersistOptions, sopts ShardedOptions, opts core.Options) (*Store, error) {
	if opts.SharedDecomps != nil {
		return nil, fmt.Errorf("store: Options.SharedDecomps must be unset (the store manages its own cache)")
	}
	m, err := wal.LoadManifest(filepath.Join(popts.Dir, manifestName))
	if err != nil {
		return nil, err
	}
	if m == nil {
		return BootstrapShardedStore(nil, popts, sopts, opts)
	}
	if sopts.Shards > 0 && sopts.Shards != m.Shards {
		return nil, fmt.Errorf("store: manifest has %d shards, options ask for %d", m.Shards, sopts.Shards)
	}
	sopts.Shards = m.Shards
	os.Remove(filepath.Join(popts.Dir, bootstrapMarker)) // outlived its manifest
	logs, err := readShardLogs(popts, m.Shards, m.Version, math.MaxUint64)
	s := newStore(sopts, opts, 0)
	if err == nil {
		s.journal = newStoreJournal(popts, logWals(logs), s.obs)
		err = s.recover(m, logs, popts)
	}
	if err != nil {
		closeLogs(logWals(logs))
		return nil, err
	}
	return s, nil
}

// shardLog is one shard's journal as recovery reads it: the shard state
// its checkpoint and log tail rebuild, streamed record by record so
// superseded object versions are collected as replay goes.
type shardLog struct {
	j  *wal.Journal
	ck *wal.Checkpoint
	// heads are the logical records past the manifest epoch, reduced to
	// (Op, Global, ID) — what the merge of the global order needs.
	heads []wal.Record
	// last is the newest store epoch replayed.
	last uint64

	objs    map[int]*uncertain.Object
	version uint64
	// viaMoveIn marks resident objects that arrived through a replayed
	// move-in — a duplicate's dangling half, if its move-out is missing.
	viaMoveIn map[int]bool
}

// readShardLogs reads every shard's journal in parallel (see
// readShardLog). On error the logs it did open are returned for
// closing.
func readShardLogs(popts PersistOptions, n int, since, cutoff uint64) ([]*shardLog, error) {
	logs := make([]*shardLog, n)
	errs := make([]error, n)
	core.ForEach(context.Background(), n, n, func(i int) {
		logs[i], errs[i] = readShardLog(shardDir(popts.Dir, i), popts, since, cutoff)
	})
	return logs, errors.Join(errs...)
}

// logWals returns the journals of the opened shard logs.
func logWals(logs []*shardLog) []*wal.Journal {
	wals := make([]*wal.Journal, 0, len(logs))
	for _, l := range logs {
		if l != nil {
			wals = append(wals, l.j)
		}
	}
	return wals
}

// readShardLog opens shard journal dir and rebuilds the shard state
// from its checkpoint and the log records with a store epoch up to
// cutoff — a prefix of the log, since epochs never decrease along it —
// keeping the heads of the logical records past epoch since.
func readShardLog(dir string, popts PersistOptions, since, cutoff uint64) (*shardLog, error) {
	j, err := wal.Open(dir, popts.wal())
	if err != nil {
		return nil, err
	}
	l := &shardLog{
		j:         j,
		ck:        j.Checkpoint(),
		objs:      make(map[int]*uncertain.Object),
		viaMoveIn: make(map[int]bool),
	}
	if l.ck != nil {
		l.version = l.ck.Version
		for _, o := range l.ck.Objects {
			l.objs[o.ID] = o
		}
	}
	past := false
	if err := j.Replay(func(rec wal.Record) error {
		if past = past || rec.Global > cutoff; past {
			return nil
		}
		l.last = rec.Global
		if rec.Op.Logical() && rec.Global > since {
			l.heads = append(l.heads, wal.Record{Op: rec.Op, Global: rec.Global, ID: rec.ObjectID()})
		}
		return l.apply(rec)
	}); err != nil {
		return l, err
	}
	return l, nil
}

// apply replays one log record onto the shard state.
func (l *shardLog) apply(rec wal.Record) error {
	if rec.Version != l.version+1 {
		return fmt.Errorf("store: journal record version %d after shard version %d", rec.Version, l.version)
	}
	id := rec.ObjectID()
	_, present := l.objs[id]
	switch rec.Op {
	case wal.OpInsert, wal.OpMoveIn:
		if present {
			return fmt.Errorf("store: journal re-inserts object ID %d", id)
		}
		l.objs[id] = rec.Obj
	case wal.OpUpdate:
		if !present {
			return fmt.Errorf("store: journal updates unknown object ID %d", id)
		}
		l.objs[id] = rec.Obj
	case wal.OpDelete, wal.OpMoveOut:
		if !present {
			return fmt.Errorf("store: journal deletes unknown object ID %d", id)
		}
		delete(l.objs, id)
	default:
		return fmt.Errorf("store: journal record with unknown op %d", rec.Op)
	}
	if rec.Op == wal.OpMoveIn {
		l.viaMoveIn[id] = true
	} else {
		delete(l.viaMoveIn, id)
	}
	l.version = rec.Version
	return nil
}

// recover builds the store state from the shard journals and the
// manifest. Requires s.journal attached (recovery journals its repairs);
// a shard log re-read up to a cutoff replaces its journal there.
func (s *Store) recover(m *wal.Manifest, logs []*shardLog, popts PersistOptions) error {
	// The logical commits past the manifest, merged across shards: each
	// carries a unique store epoch, so the merge is total and
	// deterministic. Acknowledged commits form a gapless run of epochs —
	// a commit is acknowledged only once every earlier one is durable on
	// its shard — so records past the first gap (an OS crash can keep a
	// later commit's record on one shard and lose an earlier one on
	// another) were never acknowledged and are discarded.
	var tail []wal.Record
	for _, l := range logs {
		tail = append(tail, l.heads...)
		l.heads = nil
	}
	sort.Slice(tail, func(a, b int) bool { return tail[a].Global < tail[b].Global })
	version := m.Version
	for i, rec := range tail {
		if rec.Global <= version {
			return fmt.Errorf("store: two journaled commits share epoch %d", rec.Global)
		}
		if rec.Global > version+1 {
			tail = tail[:i]
			break
		}
		version = rec.Global
	}
	s.version = version
	// A gap is rare (one shard's epochs are contiguous on its own log),
	// so the logs were replayed whole; re-read those that ran past it up
	// to the cutoff.
	cut := false
	for i, l := range logs {
		if l.last <= version {
			continue
		}
		cut = true
		if err := l.j.Close(); err != nil {
			return err
		}
		r, err := readShardLog(shardDir(popts.Dir, i), popts, version, version)
		if logs[i] = r; r != nil {
			s.journal.wals[i] = r.j
		}
		if err != nil {
			return err
		}
	}
	for i, l := range logs {
		s.shards[i].version = l.version
	}

	// Membership and homes come from the shards themselves: an object's
	// home is the shard whose recovered state holds it. An ID on two
	// shards is a migration whose move-out never hit its source journal
	// (the process died between the two appends): the copy that arrived
	// through the dangling move-in is dropped — durably, with the
	// compensating move-out journaled — and the object stays home, as
	// if the migration never started. Anything else is corruption.
	var danglers [][2]int // {shard, id}
	if len(logs) == 1 {
		s.byID = logs[0].objs
	} else {
		for i, l := range logs {
			for id, o := range l.objs {
				if _, dup := s.byID[id]; dup {
					a := s.home[id]
					switch {
					case l.viaMoveIn[id] && !logs[a].viaMoveIn[id]:
						danglers = append(danglers, [2]int{i, id})
						continue // keep a's copy
					case logs[a].viaMoveIn[id] && !l.viaMoveIn[id]:
						danglers = append(danglers, [2]int{a, id})
					default:
						return fmt.Errorf("store: object ID %d recovered on two shards", id)
					}
				}
				s.byID[id] = o
				s.home[id] = i
			}
		}
	}
	for _, d := range danglers {
		if _, err := s.journalLocked(d[0], wal.Record{Op: wal.OpMoveOut, Global: version, ID: d[1]}); err != nil {
			return fmt.Errorf("store: compensating interrupted migration of object %d: %w", d[1], err)
		}
		s.shards[d[0]].version++
	}

	// The global order: manifest order, replayed forward through the
	// merged logical records. The cache epoch mirrors the live ticks of
	// the replayed tail (an insert or delete ticks once, an update
	// twice), so it matches the surviving store's.
	order, cacheVersion := m.Order, m.CacheVersion
	for _, rec := range tail {
		switch rec.Op {
		case wal.OpInsert:
			order = append(order, rec.ID)
			cacheVersion++
		case wal.OpDelete:
			for k, id := range order {
				if id == rec.ID {
					order = append(order[:k], order[k+1:]...)
					break
				}
			}
			cacheVersion++
		case wal.OpUpdate:
			// In-place replacement: the order is unchanged.
			cacheVersion += 2
		}
	}
	if len(order) != len(s.byID) {
		return fmt.Errorf("store: global order has %d objects, shards recovered %d", len(order), len(s.byID))
	}
	s.db = make(uncertain.Database, len(order))
	for i, id := range order {
		o, ok := s.byID[id]
		if !ok {
			return fmt.Errorf("store: global order references unknown object ID %d", id)
		}
		s.db[i] = o
		s.cache.Add(o)
	}
	// Seed the cache with the checkpointed decompositions of objects the
	// log tail left untouched (the resident instance is the one the
	// checkpoint decoded): the first queries after reopen reuse the
	// crashed process's kd-splits instead of recomputing them.
	for _, l := range logs {
		if l.ck == nil || l.ck.Decomp == nil {
			continue
		}
		for k, o := range l.ck.Objects {
			if levels := l.ck.Decomp[k]; levels != nil && s.byID[o.ID] == o {
				s.cache.Seed(o, levels)
			}
		}
	}
	s.cache.SetVersion(cacheVersion)
	s.buildIndexes()
	if !cut {
		return nil
	}
	// Erase the discarded records before the store accepts a commit: a
	// checkpoint truncates every shard log past them.
	job, err := s.pinCheckpointLocked()
	if err != nil {
		return err
	}
	return s.journal.install(job)
}
