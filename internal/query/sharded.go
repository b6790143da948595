package query

import (
	"fmt"
	"sort"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/rtree"
	"probprune/internal/uncertain"
	"probprune/internal/wal"
)

// ShardFunc deterministically assigns an object to one of n shards
// (n >= 1). It must depend only on the object (typically its ID or
// MBR), never on external state: the fuzzers replay routing decisions
// and Rebalance re-applies the function to the live database.
type ShardFunc func(o *uncertain.Object, n int) int

// HashShards is the default router: FNV-1a over the object ID. It
// balances load for arbitrary ID patterns and keeps an object's home
// shard stable under Update.
func HashShards(o *uncertain.Object, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	x := uint64(o.ID)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= prime64
		x >>= 8
	}
	return int(h % uint64(n))
}

// StripeShards returns a spatial router: the MBR center along dimension
// dim is binned into n equal stripes of [lo, hi] (values outside clamp
// to the border stripes). Spatially clustered queries then touch few
// shards' worth of influence objects per filter probe; combine with
// Rebalance when updates drift objects across stripe borders.
func StripeShards(dim int, lo, hi float64) ShardFunc {
	return func(o *uncertain.Object, n int) int {
		if n <= 1 || hi <= lo || dim < 0 || dim >= len(o.MBR.Min) {
			return 0
		}
		c := (o.MBR.Min[dim] + o.MBR.Max[dim]) / 2
		i := int(float64(n) * (c - lo) / (hi - lo))
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return i
	}
}

// Move migrates the object with the given ID to shard dst without
// changing the logical database: versions, change streams and query
// results are unaffected — in-flight queries keep their snapshots, new
// queries see the object on its new shard with bit-identical bounds.
func (s *Store) Move(id, dst int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if dst < 0 || dst >= len(s.shards) {
		return fmt.Errorf("store: shard %d out of range [0, %d)", dst, len(s.shards))
	}
	o, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("store: move of unknown object ID %d", id)
	}
	if src := s.homeOf(id); src != dst {
		return s.moveLocked(o, src, dst)
	}
	return nil
}

// moveLocked performs one migration of o from shard src to shard dst.
// Requires s.mu held for writing. Moves change no logical state: the
// shard journals record them as OpMoveIn/OpMoveOut under the current
// store epoch, and recovery excludes them from global-order replay.
//
// The move-in is journaled and made durable BEFORE the move-out is
// appended: a crash between the two leaves the object durably on both
// shards — never on neither — and recovery detects the duplicate, drops
// the copy that arrived through the dangling move-in (journaling the
// compensating move-out), and proceeds as if the migration never
// happened. Any error is a journaling failure with the store unchanged;
// a move-out failure after a successful move-in is rolled back in
// memory and on disk before returning.
func (s *Store) moveLocked(o *uncertain.Object, src, dst int) error {
	if err := s.moveInLocked(o, dst); err != nil {
		return err
	}
	if _, err := s.journalLocked(src, wal.Record{Op: wal.OpMoveOut, Global: s.version, ID: o.ID}); err != nil {
		// Undo the half-applied migration; if even the compensating
		// move-out cannot be journaled, the store cannot reach a
		// consistent durable state and must not keep serving.
		if _, uerr := s.journalLocked(dst, wal.Record{Op: wal.OpMoveOut, Global: s.version, ID: o.ID}); uerr != nil {
			panic(fmt.Sprintf("store: move of object %d failed (%v) and could not be rolled back: %v", o.ID, err, uerr))
		}
		s.shardDeleteLocked(dst, o)
		return err
	}
	s.shardDeleteLocked(src, o)
	s.home[o.ID] = dst
	s.maybeCheckpointLocked()
	return nil
}

// moveInLocked is the first half of a migration: it journals o's
// move-in on shard dst, waits until the record is durable, and links o
// into dst's index (o stays on its source shard until the move-out).
// Requires s.mu held for writing.
func (s *Store) moveInLocked(o *uncertain.Object, dst int) error {
	ack, err := s.journalLocked(dst, wal.Record{Op: wal.OpMoveIn, Global: s.version, Obj: o})
	if err != nil {
		return err
	}
	if ack != nil {
		if err := s.journal.wals[dst].WaitDurable(ack[dst]); err != nil {
			return err
		}
	}
	// A move changes no logical state, but the published snapshot holds
	// the shard views it replaces.
	s.detachLocked()
	s.shardInsertLocked(dst, o)
	return nil
}

// Rebalance re-applies the partitioner to every stored object and
// migrates the ones whose current home differs, online, without
// blocking queries (each published snapshot stays valid). It returns
// the number of objects moved. Useful after Update drift under a
// spatial partitioner, or after changing load patterns under any. On a
// durable store a migration that fails to journal stops the pass early
// (the logical database is unaffected — the stragglers stay on their
// old shards); the error is deferred to the next commit, Sync or Close,
// like auto-checkpoint failures.
func (s *Store) Rebalance() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.shards) == 1 {
		return 0
	}
	moved := 0
	for _, o := range s.db {
		dst := s.shardFor(o)
		if src := s.home[o.ID]; src != dst {
			if err := s.moveLocked(o, src, dst); err != nil {
				if s.journal != nil {
					s.journal.noteCkptErr(err)
				}
				return moved
			}
			moved++
		}
	}
	return moved
}

// shardPlane is the scatter-gather data plane behind a multi-shard
// snapshot's engine: the filter-stage primitives (IDCA filter,
// preselection threshold, impossibility count) are computed per shard
// on the shards' own R-trees and gathered into the exact global value
// before any refinement work runs.
type shardPlane struct {
	shards []*shardView
}

// filter scatters the complete-domination filter across the shard
// indexes and gathers the canonical merged outcome. Shards whose cached
// root MBR already decides the whole partition (completely dominated,
// or completely dominating with only certain objects) contribute their
// verdict with a single geometric test instead of a tree walk — the
// shard-level analogue of the walk's per-node wholesale decisions, with
// identical outcomes.
func (p *shardPlane) filter(target, reference *uncertain.Object, opts core.Options) core.PartialFilter {
	parts := make([]core.PartialFilter, len(p.shards))
	for i, sh := range p.shards {
		root, allCertain, ok := sh.stats()
		if !ok {
			continue // empty shard
		}
		if pf, whole := core.PartialFilterWhole(root, sh.index.Len(), allCertain, target, reference, opts); whole {
			parts[i] = pf
			continue
		}
		parts[i] = core.PartialFilterIndexed(sh.index, target, reference, opts)
	}
	return core.MergePartials(parts...)
}

// run is one cross-shard IDCA run: scatter the filter, gather, refine
// once at the router.
func (p *shardPlane) run(target, reference *uncertain.Object, opts core.Options) *core.Result {
	return core.RunMerged(target, reference, p.filter(target, reference, opts), opts)
}

// newSession is run's incremental counterpart (TopKNN round stepping).
func (p *shardPlane) newSession(target, reference *uncertain.Object, opts core.Options) *core.Session {
	return core.NewSessionMerged(target, reference, p.filter(target, reference, opts), opts)
}

// knnThreshold computes the exact global m_{k+1} preselection bound —
// the (k+1)-th smallest MaxDist(o, q) over all certainly-existing
// objects — by folding the shards' ascending MaxDist streams into one
// bounded max-heap of the k+1 smallest values of the union. Shards are
// visited nearest-first (by root-MBR MinDist, a lower bound on every
// resident object's MaxDist), so once the heap is full, far shards are
// ruled out with one distance test and a near shard's stream stops as
// soon as its next value cannot displace a heap member. The result is
// the same order statistic of the same multiset the monolithic engine
// computes: bit-identical, but typically touching one or two shards.
func (p *shardPlane) knnThreshold(q *uncertain.Object, k int, n geom.Norm) float64 {
	h := &maxDistHeap{bound: k + 1}
	type shardDist struct {
		sh  *shardView
		min float64
	}
	order := make([]shardDist, 0, len(p.shards))
	for _, sh := range p.shards {
		root, _, ok := sh.stats()
		if !ok {
			continue
		}
		order = append(order, shardDist{sh, root.MinDistRect(n, q.MBR)})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].min < order[j].min })
	buf := nearbyPool.Get().(*rtree.NearbyBuf)
	defer nearbyPool.Put(buf)
	for _, sd := range order {
		if h.Len() == h.bound && sd.min >= h.threshold() {
			// Every object in this (and every later) shard has
			// MaxDist >= its root MinDist >= the current bound: no value
			// can displace a heap member.
			break
		}
		sd.sh.index.NearbyWith(buf,
			func(mbr geom.Rect, _ *uncertain.Object, leaf bool) float64 {
				if leaf {
					return mbr.MaxDistRect(n, q.MBR)
				}
				return mbr.MinDistRect(n, q.MBR)
			},
			func(_ geom.Rect, o *uncertain.Object, d float64) bool {
				if o == q || o.ExistenceProb() < 1 {
					return true
				}
				h.offer(d)
				// Ascending stream: once the heap is full and the current
				// distance reaches the bound, later values cannot improve it.
				return h.Len() < h.bound || d < h.threshold()
			},
		)
	}
	return h.threshold()
}

// rknnPrunable sums capped per-shard certain-dominator counts; the
// candidate is impossible once the shards together account for k
// objects closer to it than q in every possible world — the exact test
// the monolithic engine applies. Shards whose root MBR cannot be
// MaxDist-closer than lim are ruled out without a traversal.
func (p *shardPlane) rknnPrunable(q, b *uncertain.Object, k int, n geom.Norm) bool {
	lim := q.MBR.MinDistRect(n, b.MBR)
	if lim <= 0 {
		return false
	}
	count := 0
	for _, sh := range p.shards {
		root, _, ok := sh.stats()
		if !ok || root.MinDistRect(n, b.MBR) >= lim {
			continue
		}
		count += rknnCertainDominators(sh.index, q, b, k-count, lim, n)
		if count >= k {
			return true
		}
	}
	return false
}
