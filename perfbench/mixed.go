package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/obs"
	"probprune/internal/query"
	"probprune/internal/server"
	"probprune/internal/server/client"
	"probprune/internal/uncertain"
	"probprune/internal/wal"
	"probprune/internal/workload"
)

// mixed-durable: writes beside reads on a durable store, at five times
// the objects of the other workloads. Open-loop UPDATEs, each a local
// drift of one object, go at a fixed rate over both connections to a
// SyncAlways (group-commit) store behind the server, which checkpoints
// every 200 writes, four times in a run. Named standing kNN
// subscriptions on the first connection receive pushes. Three writes in
// four move objects inside the subscriptions' neighbourhoods, the rest
// any object, so that maintenance and pushes happen on every run.
//
// The one-shot kNN reads call the store in process. Over the wire, a
// read at 50,000 objects holds its connection for a quarter of a second
// while its 50,000-match reply is encoded, sent and decoded; the server
// dispatches a connection's commands one at a time, so with two
// connections every read stalled the writes queued behind it, and those
// stalls set the write tail. knn-serve measures the wire read path.
//
// The write rate is about a quarter of where the store breaks down on a
// 2-core machine: at 150/s subscription maintenance falls behind, its
// queue of pending snapshots grows without bound (3 GB of live heap
// after 20 seconds) and the write median read 4 ms in one run and 13 ms
// in the next. At 75/s the write median's spread (interquartile range
// over median, five seeds) was 6%, at 40/s 3%.

const (
	mixedSetups = 3
	// mixedMinGap keeps two writes of one object this many writes apart,
	// so that the last acknowledged state of each object is defined.
	mixedMinGap = 256
	mixedHot    = 0.75
	mixedDrift  = 0.002
	// mixedGCPercent: as in knn-serve, the process hosts the store, the
	// server and both clients, and every write detaches a copy of the
	// 50,000-entry database. At the default GOGC, collection took about
	// a fifth of the run's CPU time, and the write median's spread
	// (interquartile range over median) across ten seeds was 21%; at 400
	// it was 2% across five, on a 2-core machine.
	mixedGCPercent = 400
	// mixedDrainTimeout bounds the wait for the subscription streams to
	// end after the run; a stream that does not end fails the run.
	mixedDrainTimeout = 30 * time.Second
)

type mixedSize struct {
	n, samples, subs, ckptEvery int
	writeRate, readRate         float64
}

func (c config) mixedSize() mixedSize {
	if c.small {
		return mixedSize{n: 2000, samples: 4, subs: 8, ckptEvery: 50, writeRate: 75, readRate: 0.5}
	}
	return mixedSize{n: 50000, samples: 8, subs: 64, ckptEvery: 200, writeRate: 40, readRate: 0.5}
}

func mixedOpts() core.Options { return core.Options{MaxIterations: 3} }

// mixedSub is one standing subscription and the events its consumer
// goroutine received, with their arrival times.
type mixedSub struct {
	q      *uncertain.Object
	sub    *client.Sub
	events []server.EventMsg
	recv   []time.Time
	reason string
	done   chan struct{}
}

func (s *mixedSub) consume() {
	defer close(s.done)
	for ev := range s.sub.Events {
		if ev.Kind == server.EvEnd {
			s.reason = ev.Reason
			continue
		}
		s.events = append(s.events, ev)
		s.recv = append(s.recv, time.Now())
	}
}

// versionLog maps each committed store version to the object it wrote,
// so that a push can be traced back to the write that caused it.
type versionLog struct {
	mu sync.Mutex
	m  map[uint64]*uncertain.Object
}

type mixedEnv struct {
	dir       string
	popts     query.PersistOptions
	store     *query.Store
	srv       *served
	subs      []*mixedSub
	v0        uint64
	versions  *versionLog
	stopWatch func()
	updates   []*uncertain.Object
	reads     []*uncertain.Object
}

func setupMixed(sz mixedSize, cfg config, phases int) (*mixedEnv, error) {
	db, err := workload.Synthetic(workload.SyntheticConfig{
		N: sz.n, Dim: 2, MaxExtent: 0.004, Samples: sz.samples, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "mixed-")
	if err != nil {
		return nil, err
	}
	env := &mixedEnv{dir: dir, versions: &versionLog{m: map[uint64]*uncertain.Object{}}}
	env.popts = query.PersistOptions{Dir: filepath.Join(dir, "store"), Sync: wal.SyncAlways, CheckpointEvery: sz.ckptEvery}
	env.store, err = query.BootstrapStore(db, env.popts, mixedOpts())
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	env.srv, err = serve(env.store, server.Options{CursorPath: filepath.Join(dir, "cursor")})
	if err != nil {
		env.release()
		return nil, err
	}
	snap, stop := env.store.Watch(func(ch query.Change) {
		env.versions.mu.Lock()
		env.versions.m[ch.Version] = ch.New
		env.versions.mu.Unlock()
	})
	env.stopWatch, env.v0 = stop, snap.Version()

	rng := rand.New(rand.NewSource(cfg.seed + 2))
	eng := env.store.Snapshot().Engine()
	hot := map[int]bool{}
	for i := 0; i < sz.subs; i++ {
		q := uncertain.PointObject(-(i + 1), geom.Point{rng.Float64(), rng.Float64()})
		sub, err := env.srv.conns[0].Subscribe(client.SubOptions{
			Kind: "KNN", K: knnK, Tau: knnTau, Q: q, Name: fmt.Sprintf("mixed-%d", i)})
		if err != nil {
			env.release()
			return nil, fmt.Errorf("subscribe: %w", err)
		}
		ms := &mixedSub{q: q, sub: sub, done: make(chan struct{})}
		go ms.consume()
		env.subs = append(env.subs, ms)
		th := eng.KNNThreshold(q, knnK)
		for _, o := range db {
			if !eng.KNNPrunable(q, o, th) {
				hot[o.ID] = true
			}
		}
	}
	env.updates = driftUpdates(db, hot, phases*int(sz.writeRate*cfg.seconds), rng)
	env.reads = make([]*uncertain.Object, phases*readCount(sz, cfg))
	for i := range env.reads {
		env.reads[i] = uncertain.PointObject(-(sz.subs + i + 1), geom.Point{rng.Float64(), rng.Float64()})
	}
	return env, nil
}

func readCount(sz mixedSize, cfg config) int {
	if n := int(sz.readRate * cfg.seconds); n > 0 {
		return n
	}
	return 1
}

// driftUpdates draws n updates, each moving one object by a small
// random offset from its previous state. A share mixedHot of them pick
// an object from hot (the subscriptions' neighbourhoods), the rest any
// object; an object is not picked again within mixedMinGap updates.
func driftUpdates(db uncertain.Database, hot map[int]bool, n int, rng *rand.Rand) []*uncertain.Object {
	cur := make(map[int]*uncertain.Object, len(db))
	all := make([]int, len(db))
	for i, o := range db {
		cur[o.ID] = o
		all[i] = o.ID
	}
	var hotIDs []int
	for _, id := range all {
		if hot[id] {
			hotIDs = append(hotIDs, id)
		}
	}
	lastUse := map[int]int{}
	out := make([]*uncertain.Object, 0, n)
	for len(out) < n {
		pool := all
		if len(hotIDs) > 0 && rng.Float64() < mixedHot {
			pool = hotIDs
		}
		id := pool[rng.Intn(len(pool))]
		if last, ok := lastUse[id]; ok && len(out)-last < mixedMinGap {
			continue
		}
		lastUse[id] = len(out)
		dx, dy := (2*rng.Float64()-1)*mixedDrift, (2*rng.Float64()-1)*mixedDrift
		old := cur[id]
		samples := make([]geom.Point, len(old.Samples))
		for j, s := range old.Samples {
			samples[j] = geom.Point{s[0] + dx, s[1] + dy}
		}
		o, err := uncertain.NewObject(id, samples)
		if err != nil {
			panic(err) // a shifted valid object is valid
		}
		cur[id] = o
		out = append(out, o)
	}
	return out
}

// release stops everything the environment started and deletes its
// directory.
func (e *mixedEnv) release() {
	if e.srv != nil {
		e.srv.close()
		for _, s := range e.subs {
			<-s.done
		}
	}
	if e.stopWatch != nil {
		e.stopWatch()
	}
	e.store.Close()
	os.RemoveAll(e.dir)
}

// mixedPhase is what one measured phase recorded.
type mixedPhase struct {
	writeLat, readLat, late []float64
	writeTraces             []obs.TraceSnapshot
	readTraces              []obs.TraceSnapshot
	writeDue, readDue       []time.Time
	writeFailed, readFailed int
	elapsed                 time.Duration
}

func runMixed(cfg config) (*outcome, error) {
	sz := cfg.mixedSize()
	defer debug.SetGCPercent(debug.SetGCPercent(mixedGCPercent))
	phases, setups := 1, mixedSetups
	if cfg.trace {
		phases, setups = 2, 1
	}
	env, setupS, err := repeatSetup(setups,
		func() (*mixedEnv, error) { return setupMixed(sz, cfg, phases) },
		func(e *mixedEnv) { e.release() })
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.dir)
	out := newOutcome()
	out.identity["objects"] = sz.n
	out.identity["samples"] = sz.samples
	out.identity["dim"] = 2
	out.identity["extent"] = 0.004
	out.identity["flush_policy"] = "SyncAlways (group commit)"
	out.identity["checkpoint_every"] = sz.ckptEvery
	out.identity["write_rate_per_s"] = sz.writeRate
	out.identity["read_rate_per_s"] = sz.readRate
	out.identity["subscriptions"] = sz.subs
	out.identity["connections"] = len(env.srv.conns)
	out.identity["gogc"] = mixedGCPercent

	writes := make([]write, len(env.updates))
	nw, nr := len(env.updates)/phases, len(env.reads)/phases
	statsBefore, err := env.srv.conns[1].Stats()
	if err != nil {
		env.release()
		return nil, err
	}
	plain := mixedRun(env, sz, writes[:nw], env.updates[:nw], env.reads[:nr], false)
	out.metrics["setup_s"] = setupS
	out.metrics["p50_ms"] = median(plain.writeLat)
	out.metrics["write.p99_ms"] = quantile(plain.writeLat, 0.99)
	out.metrics["ops_per_s"] = float64(nw) / plain.elapsed.Seconds()
	out.metrics["heap_mb"] = settledHeapMiB()
	out.metrics["loadgen.late_p99_ms"] = quantile(plain.late, 0.99)
	out.metrics["mixed_knn.p50_ms"] = median(plain.readLat)

	var traced mixedPhase
	var statsMid map[string]int64
	if cfg.trace {
		if statsMid, err = env.srv.conns[1].Stats(); err != nil {
			env.release()
			return nil, err
		}
		traced = mixedRun(env, sz, writes[nw:], env.updates[nw:], env.reads[nr:], true)
	}
	statsAfter, err := env.srv.conns[1].Stats()
	if err != nil {
		env.release()
		return nil, err
	}
	out.attempted += int64(len(writes) + len(env.reads) + len(env.subs))
	out.failed += int64(plain.writeFailed + plain.readFailed + traced.writeFailed + traced.readFailed)
	// Shed or dropped pushes.
	for _, k := range []string{"server.shed", "cq.dropped", "cq.lost"} {
		if _, ok := statsAfter[k]; !ok {
			env.release()
			return nil, fmt.Errorf("STATS lacks %s", k)
		}
		out.failed += statsAfter[k] - statsBefore[k]
	}

	pushes, err := mixedCheckSubs(env, out)
	if err != nil {
		env.release()
		return nil, err
	}
	push := pushLatencies(env, pushes, plain.writeDue, 0)
	out.metrics["push.p50_ms"] = median(push)
	out.metrics["push.p99_ms"] = quantile(push, 0.99)
	out.identity["pushes"] = len(push)

	if cfg.trace {
		mixedTraced(env, out, traced, plain, statsMid, statsAfter, nw)
	}

	// Recovery: close everything, reopen the directory, and look for
	// every acknowledged write.
	env.srv.close()
	env.stopWatch()
	if err := env.store.Close(); err != nil {
		return nil, fmt.Errorf("close store: %w", err)
	}
	opens := 1
	if cfg.trace {
		opens = mixedSetups
	}
	var recover []float64
	for i := 0; i < opens; i++ {
		t0 := time.Now()
		rs, err := query.OpenStore(env.popts, mixedOpts())
		if err != nil {
			return nil, fmt.Errorf("reopen store: %w", err)
		}
		recover = append(recover, time.Since(t0).Seconds())
		if i == 0 {
			out.failed += int64(lostWrites(writes, rs.Get))
		}
		if err := rs.Close(); err != nil {
			return nil, fmt.Errorf("close reopened store: %w", err)
		}
	}
	out.metrics["recover_s"] = median(recover)
	return out, nil
}

// mixedRun runs one phase: the write and read schedules side by side.
func mixedRun(env *mixedEnv, sz mixedSize, writes []write, updates, reads []*uncertain.Object, traced bool) mixedPhase {
	p := mixedPhase{
		writeLat:    make([]float64, len(updates)),
		writeTraces: make([]obs.TraceSnapshot, len(updates)),
		writeDue:    make([]time.Time, len(updates)),
		readLat:     make([]float64, len(reads)),
		readTraces:  make([]obs.TraceSnapshot, len(reads)),
		readDue:     make([]time.Time, len(reads)),
	}
	readFailed := make([]bool, len(reads))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		openLoop(len(reads), time.Duration(float64(time.Second)/sz.readRate), func(i int, due time.Time) {
			ctx := context.Background()
			var tr obs.Trace
			if traced {
				ctx = obs.WithTrace(ctx, &tr)
			}
			_, err := env.store.KNNCtx(ctx, reads[i], knnK, knnTau)
			p.readLat[i], p.readDue[i] = ms(time.Since(due)), due
			p.readTraces[i] = tr.Snapshot()
			readFailed[i] = err != nil
		})
	}()
	start := time.Now()
	p.late = openLoop(len(updates), time.Duration(float64(time.Second)/sz.writeRate), func(i int, due time.Time) {
		c := env.srv.conns[i%2]
		w := &writes[i]
		w.obj, w.sent = updates[i], time.Now()
		var err error
		if traced {
			p.writeTraces[i], err = c.UpdateTrace(updates[i])
		} else {
			err = c.Update(updates[i])
		}
		now := time.Now()
		p.writeLat[i], p.writeDue[i] = ms(now.Sub(due)), due
		if err == nil {
			w.acked = now
		}
	})
	p.elapsed = time.Since(start)
	wg.Wait()
	for i := range writes {
		if writes[i].acked.IsZero() {
			p.writeFailed++
		}
	}
	for _, f := range readFailed {
		if f {
			p.readFailed++
		}
	}
	return p
}

// mixedCheckSubs ends every subscription once the monitor has caught up
// with the last write and counts the subscriptions that fail
// subFailures. It returns the pushes: (version, arrival) pairs past the
// initial sets.
func mixedCheckSubs(env *mixedEnv, out *outcome) ([]pushRecv, error) {
	c := env.srv.conns[0]
	if _, err := c.WaitVersion(env.store.Version()); err != nil {
		return nil, fmt.Errorf("waitversion: %w", err)
	}
	for _, s := range env.subs {
		if err := c.Unsubscribe(s.sub); err != nil {
			return nil, fmt.Errorf("unsubscribe: %w", err)
		}
	}
	timeout := time.After(mixedDrainTimeout)
	var pushes []pushRecv
	for _, s := range env.subs {
		select {
		case <-s.done:
		case <-timeout:
			return nil, fmt.Errorf("subscription streams did not end within %v", mixedDrainTimeout)
		}
		for j, ev := range s.events {
			if ev.Version > env.v0 {
				pushes = append(pushes, pushRecv{ev.Version, s.recv[j]})
			}
		}
	}
	stats, err := env.srv.conns[1].Stats()
	if err != nil {
		return nil, err
	}
	out.failed += int64(subFailures(env.subs, stats["server.pushed"], func(q *uncertain.Object) []query.Match {
		return env.store.KNN(q, knnK, knnTau)
	}))
	return pushes, nil
}

// subFailures checks each ended subscription: it must have ended by
// UNSUBSCRIBE, and its initial set plus pushed events must equal a
// direct kNN at the final version. A push lost on the way is caught
// even when a later one hides it: the events received must number the
// server's count of pushed frames (the server is fresh, so the count
// covers exactly these subscriptions). Each mismatch counts once.
func subFailures(subs []*mixedSub, pushed int64, direct func(*uncertain.Object) []query.Match) int {
	failed := 0
	received := int64(0)
	for _, s := range subs {
		received += int64(len(s.events))
		if s.reason != server.EndUnsubscribed || !subMatches(s.events, direct(s.q)) {
			failed++
		}
	}
	if received != pushed {
		failed++
	}
	return failed
}

type pushRecv struct {
	version uint64
	at      time.Time
}

// pushLatencies times each push from the due time of the write that
// committed its version. Only writes of the first len(due) updates
// (offset base) are considered, so pushes of another phase are skipped.
func pushLatencies(env *mixedEnv, pushes []pushRecv, due []time.Time, base int) []float64 {
	type key struct {
		id   int
		x, y float64
	}
	index := map[key]int{}
	for i, o := range env.updates[base : base+len(due)] {
		index[key{o.ID, o.Samples[0][0], o.Samples[0][1]}] = i
	}
	env.versions.mu.Lock()
	defer env.versions.mu.Unlock()
	var lat []float64
	for _, p := range pushes {
		o := env.versions.m[p.version]
		if o == nil {
			continue
		}
		if i, ok := index[key{o.ID, o.Samples[0][0], o.Samples[0][1]}]; ok {
			lat = append(lat, ms(p.at.Sub(due[i])))
		}
	}
	return lat
}

// mixedTraced derives the per-layer metrics of the traced phase from
// its TRACE frames and the STATS deltas across it.
func mixedTraced(env *mixedEnv, out *outcome, traced, plain mixedPhase, before, after map[string]int64, writes int) {
	spans := newSpanLog()
	out.spans = spans
	// A write's wall time is covered by the spans the server reports
	// (queue and WAL wait); the rest — commit under the store lock, COW
	// detach, watcher fan-out and the wire — is store.commit_ms and stays
	// unexplained.
	var wall, covered float64
	var waits, commits, queues []float64
	for i, ts := range traced.writeTraces {
		due := traced.writeDue[i]
		root := spans.add(0, i, "write.request", "bench", due, due.Add(time.Duration(traced.writeLat[i]*float64(time.Millisecond))))
		spans.addServer(root, i, due, []string{"server.queue", "wal.wait"}, []time.Duration{ts.Queue, ts.WALWait})
		walWait, queue := ms(ts.WALWait), ms(ts.Queue)
		waits = append(waits, walWait)
		queues = append(queues, queue)
		commits = append(commits, traced.writeLat[i]-walWait-queue)
		wall += traced.writeLat[i]
		covered += walWait + queue
	}
	var prepare, eval, cands, refined, undecided, iters []float64
	var hits, misses, sumCand, sumRefined uint64
	for i, ts := range traced.readTraces {
		prepare = append(prepare, ms(ts.Prepare))
		eval = append(eval, ms(ts.Eval))
		cands = append(cands, float64(ts.Candidates))
		refined = append(refined, float64(ts.Refined))
		undecided = append(undecided, float64(ts.Undecided))
		iters = append(iters, float64(ts.Iterations))
		hits += ts.CacheHits
		misses += ts.CacheMisses
		sumCand += ts.Candidates
		sumRefined += ts.Refined
		due := traced.readDue[i]
		root := spans.add(0, len(traced.writeTraces)+i, "knn.request", "bench", due, due.Add(time.Duration(traced.readLat[i]*float64(time.Millisecond))))
		spans.addServer(root, len(traced.writeTraces)+i, due, []string{"query.prepare", "query.eval"},
			[]time.Duration{ts.Prepare, ts.Eval})
	}
	delta := func(k string) float64 { return float64(after[k] - before[k]) }
	w := float64(writes)
	out.metrics["wal.wait_ms_p50"] = median(waits)
	out.metrics["wal.wait_ms_p99"] = quantile(waits, 0.99)
	out.metrics["store.commit_ms"] = median(commits)
	out.metrics["server.queue_ms"] = median(queues)
	out.metrics["wal.fsyncs_per_write"] = delta("wal.fsyncs") / w
	out.metrics["wal.bytes_per_write"] = delta("wal.append_bytes") / w
	out.metrics["store.checkpoints"] = delta("wal.checkpoints")
	out.metrics["store.checkpoint.coalesced"] = delta("store.checkpoint.coalesced")
	out.metrics["cq.runs_per_write"] = delta("cq.runs") / w
	out.metrics["cq.saved_share"] = ratio(delta("cq.saved"), delta("cq.saved")+delta("cq.runs"))
	out.metrics["cq.events_per_write"] = delta("cq.events") / w
	out.metrics["query.prepare_ms"] = median(prepare)
	out.metrics["query.eval_ms"] = median(eval)
	out.metrics["query.candidates"] = median(cands)
	out.metrics["query.refined"] = median(refined)
	out.metrics["query.undecided"] = median(undecided)
	out.metrics["query.iterations"] = median(iters)
	out.metrics["query.refine_share"] = ratio(float64(sumRefined), float64(sumCand))
	out.metrics["query.cache_hit_rate"] = ratio(float64(hits), float64(hits+misses))
	out.metrics["obs.trace_overhead"] = ratio(median(traced.writeLat), median(plain.writeLat))
	out.metrics["store.space_amp"] = spaceAmp(env)
	attribution(out, wall, covered)
}

// spaceAmp is the store directory's size over the raw size of the
// live objects: 8 bytes for each ID, coordinate and weight.
func spaceAmp(env *mixedEnv) float64 {
	var disk int64
	filepath.WalkDir(env.popts.Dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				disk += info.Size()
			}
		}
		return nil
	})
	var live int64
	for _, o := range env.store.Snapshot().DB() {
		live += 8 * int64(1+len(o.Samples)*o.Dim()+len(o.Weights))
	}
	return ratio(float64(disk), float64(live))
}
