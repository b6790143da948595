package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime/debug"
	"time"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/obs"
	"probprune/internal/query"
	"probprune/internal/server"
	"probprune/internal/server/client"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

// knn-serve: the read-serving path. Threshold kNN requests at seeded
// uniform query points go over loopback TCP to an in-process server on
// a volatile store, open loop at a fixed rate split over two
// connections. The reply carries one match per database object, so the
// wire and the O(N) preselection scan weigh as much as the kernel.

const (
	knnK   = 5
	knnTau = 0.3
	// knnRate stays fixed so that a slower build shows as queueing, not
	// as fewer requests. At twice the rate, requests overlap on a 2-core
	// machine and the latency median moved by 30% between runs.
	knnRate = 10.0
	// knnSetups is higher than elsewhere because one set-up takes only
	// a fifth of a second.
	knnSetups = 5
	// knnGCPercent: the process hosts the server and its client, and
	// decoding a 10,000-match reply makes as much garbage as serving it.
	// At the default GOGC a collection then starts in about every other
	// request, latency splits into two modes, and its median sits on the
	// edge between them: the median's spread (interquartile range over
	// median) across seeds was 19%, against 12% at GOGC 400 and 4% at
	// 200, on a 2-core machine.
	knnGCPercent = 200
	// Every knnReplayEvery-th traced request is replayed in process.
	knnReplayEvery = 4
)

type knnSize struct {
	n, samples int
	rate       float64
}

func (c config) knnSize() knnSize {
	if c.small {
		return knnSize{n: 500, samples: 8, rate: 20}
	}
	return knnSize{n: 10000, samples: 32, rate: knnRate}
}

// served is an in-process server on a loopback port with the
// benchmark's two client connections.
type served struct {
	srv   *server.Server
	done  chan error
	conns [2]*client.Client
}

func serve(backend server.Backend, opts server.Options) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: server.New(backend, opts), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	for i := range s.conns {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns[i] = c
	}
	return s, nil
}

// close stops the clients and the server and waits for Serve to return.
func (s *served) close() error {
	for _, c := range s.conns {
		if c != nil {
			c.Close()
		}
	}
	err := s.srv.Close()
	<-s.done
	return err
}

type knnEnv struct {
	store  *query.Store
	srv    *served
	points []*uncertain.Object
}

func setupKNN(sz knnSize, seed int64, queries int) (*knnEnv, error) {
	db, err := workload.Synthetic(workload.SyntheticConfig{
		N: sz.n, Dim: 2, MaxExtent: 0.004, Samples: sz.samples, Seed: seed})
	if err != nil {
		return nil, err
	}
	store, err := query.NewStore(db, core.Options{MaxIterations: 3})
	if err != nil {
		return nil, err
	}
	srv, err := serve(store, server.Options{})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	points := make([]*uncertain.Object, queries)
	for i := range points {
		points[i] = uncertain.PointObject(-(i + 1), geom.Point{rng.Float64(), rng.Float64()})
	}
	env := &knnEnv{store: store, srv: srv, points: points}
	// One untimed request per connection.
	for i, c := range srv.conns {
		if _, err := c.KNN(points[i], knnK, knnTau); err != nil {
			env.srv.close()
			return nil, fmt.Errorf("warm-up kNN: %w", err)
		}
	}
	return env, nil
}

func runKNNServe(cfg config) (*outcome, error) {
	sz := cfg.knnSize()
	n := int(sz.rate * cfg.seconds)
	if n < 1 {
		n = 1
	}
	gap := time.Duration(float64(time.Second) / sz.rate)
	defer debug.SetGCPercent(debug.SetGCPercent(knnGCPercent))
	setups := knnSetups
	if cfg.trace {
		setups = 1
	}
	env, setupS, err := repeatSetup(setups,
		func() (*knnEnv, error) { return setupKNN(sz, cfg.seed, 2*n) },
		func(e *knnEnv) { e.srv.close() })
	if err != nil {
		return nil, err
	}
	defer env.srv.close()
	out := newOutcome()
	out.identity["objects"] = sz.n
	out.identity["samples"] = sz.samples
	out.identity["dim"] = 2
	out.identity["extent"] = 0.004
	out.identity["rate_per_s"] = sz.rate
	out.identity["connections"] = len(env.srv.conns)
	out.identity["flush_policy"] = "none (in-memory store)"
	out.identity["gogc"] = knnGCPercent

	// Untraced phase.
	lat := make([]float64, n)
	failed := make([]bool, n)
	digests := make([]uint64, n)
	start := time.Now()
	late := openLoop(n, gap, func(i int, due time.Time) {
		m, err := env.srv.conns[i%2].KNN(env.points[i], knnK, knnTau)
		lat[i] = ms(time.Since(due))
		failed[i], digests[i] = err != nil, replyDigest(m)
	})
	elapsed := time.Since(start)
	out.metrics["setup_s"] = setupS
	out.metrics["p50_ms"] = median(lat)
	out.metrics["knn.p95_ms"] = quantile(lat, 0.95)
	out.metrics["ops_per_s"] = float64(n) / elapsed.Seconds()
	out.metrics["heap_mb"] = settledHeapMiB()
	out.metrics["loadgen.late_p99_ms"] = quantile(late, 0.99)

	// The store is static: every reply must equal the in-process answer.
	for i := range lat {
		out.attempted++
		if failed[i] || digests[i] != answerDigest(env.store.KNN(env.points[i], knnK, knnTau)) {
			out.failed++
		}
	}
	if cfg.trace {
		knnTraced(env, cfg, out, n, gap, median(lat))
	}
	return out, nil
}

// knnTraced runs the same schedule with the TRACE flag, then replays
// every sampled request in process — preselection threshold, the
// per-candidate preselection scan, refinement of the survivors, reply
// encoding and decoding — timing each, and checks that the replay
// equals the wire reply.
func knnTraced(env *knnEnv, cfg config, out *outcome, n int, gap time.Duration, untracedP50 float64) {
	spans := newSpanLog()
	out.spans = spans
	rtt := make([]float64, n)
	dues := make([]time.Time, n)
	traces := make([]obs.TraceSnapshot, n)
	failed := make([]bool, n)
	digests := make([]uint64, n)
	openLoop(n, gap, func(i int, due time.Time) {
		m, ts, err := env.srv.conns[i%2].KNNTrace(env.points[n+i], knnK, knnTau)
		rtt[i] = ms(time.Since(due))
		dues[i], traces[i], failed[i], digests[i] = due, ts, err != nil, replyDigest(m)
	})

	var (
		queue, prepare, eval, cands, refined, undecided, iters []float64
		thresh, presel, refine, encode, decode, bytesOut, rest []float64
		wall, covered                                          float64
		hits, misses, sumCand, sumRefined                      uint64
	)
	eng := env.store.Snapshot().Engine()
	db := env.store.Snapshot().DB()
	for i := 0; i < n; i++ {
		out.attempted++
		if failed[i] {
			out.failed++
			continue
		}
		ts := traces[i]
		root := spans.add(0, i, "knn.request", "bench", dues[i], dues[i].Add(time.Duration(rtt[i]*float64(time.Millisecond))))
		spans.addServer(root, i, dues[i], []string{"server.queue", "query.prepare", "query.eval"},
			[]time.Duration{ts.Queue, ts.Prepare, ts.Eval})
		queue = append(queue, ms(ts.Queue))
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
		if i%knnReplayEvery != 0 {
			continue
		}

		r := replayKNN(eng, db, env.points[n+i])
		spans.add(root, i, "rtree.threshold", "replay", r.t[0], r.t[1])
		spans.add(root, i, "query.preselect", "replay", r.t[1], r.t[2])
		spans.add(root, i, "query.refine", "replay", r.t[2], r.t[3])
		spans.add(root, i, "server.encode", "replay", r.t[3], r.t[4])
		spans.add(root, i, "client.decode", "replay", r.t[5], r.t[6])
		thresh = append(thresh, ms(r.t[1].Sub(r.t[0])))
		presel = append(presel, ms(r.t[2].Sub(r.t[1])))
		refine = append(refine, ms(r.t[3].Sub(r.t[2])))
		enc, dec := ms(r.t[4].Sub(r.t[3])), ms(r.t[6].Sub(r.t[5]))
		encode = append(encode, enc)
		decode = append(decode, dec)
		bytesOut = append(bytesOut, float64(r.replyBytes))
		explained := ms(ts.Queue) + ms(ts.Prepare) + ms(ts.Eval) + enc + dec
		rest = append(rest, rtt[i]-explained)
		wall += rtt[i]
		covered += explained
		if !r.ok || digests[i] != answerDigest(r.matches) || digests[i] != replyDigest(r.decoded) {
			out.failed++
		}
	}
	out.metrics["server.queue_ms"] = median(queue)
	out.metrics["query.prepare_ms"] = median(prepare)
	out.metrics["query.eval_ms"] = median(eval)
	out.metrics["query.candidates"] = median(cands)
	out.metrics["query.refined"] = median(refined)
	out.metrics["query.undecided"] = median(undecided)
	out.metrics["query.iterations"] = median(iters)
	out.metrics["query.refine_share"] = ratio(float64(sumRefined), float64(sumCand))
	out.metrics["query.cache_hit_rate"] = ratio(float64(hits), float64(hits+misses))
	out.metrics["rtree.threshold_ms"] = median(thresh)
	out.metrics["query.preselect_ms"] = median(presel)
	out.metrics["query.refine_ms"] = median(refine)
	out.metrics["server.encode_ms"] = median(encode)
	out.metrics["server.reply_bytes"] = median(bytesOut)
	out.metrics["client.decode_ms"] = median(decode)
	out.metrics["wire.rest_ms"] = median(rest)
	out.metrics["obs.trace_overhead"] = ratio(median(rtt), untracedP50)
	attribution(out, wall, covered)
}

// knnReplay is one in-process re-run of a wire kNN request: t holds the
// boundaries between its stages (threshold, preselection, refinement,
// EncodeMatches, serialization and framing, DecodeMatches).
type knnReplay struct {
	t          [7]time.Time
	matches    []query.Match
	decoded    []server.Match
	replyBytes int
	ok         bool
}

// replayKNN re-runs a kNN query stage by stage on a snapshot engine,
// the way Engine.KNN does it: the m_{k+1} threshold from the R-tree,
// the preselection test for every candidate in database order, an IDCA
// run per survivor sharing one query cache; then the server's reply
// encoding and the client's decoding of the same result.
func replayKNN(eng *query.Engine, db uncertain.Database, q *uncertain.Object) knnReplay {
	var r knnReplay
	r.t[0] = time.Now()
	th := eng.KNNThreshold(q, knnK)
	r.t[1] = time.Now()
	r.matches = make([]query.Match, 0, len(db))
	var survivors []int
	for _, b := range db {
		if b == q {
			continue
		}
		if eng.KNNPrunable(q, b, th) {
			r.matches = append(r.matches, query.Match{Object: b, Decided: true})
			continue
		}
		survivors = append(survivors, len(r.matches))
		r.matches = append(r.matches, query.Match{Object: b})
	}
	r.t[2] = time.Now()
	cache := eng.NewQueryCache()
	for _, j := range survivors {
		r.matches[j] = eng.EvalKNNCandidate(q, r.matches[j].Object, knnK, knnTau, th, cache)
	}
	r.t[3] = time.Now()
	frame := server.EncodeMatches(r.matches)
	r.t[4] = time.Now()
	// Serialization and framing are wire work: outside both spans.
	var buf bytes.Buffer
	w := server.NewWriter(&buf)
	err := w.WriteFrame(frame)
	if err == nil {
		err = w.Flush()
	}
	r.replyBytes = buf.Len()
	if err == nil {
		frame, err = server.NewReader(&buf).ReadFrame()
	}
	r.t[5] = time.Now()
	if err == nil {
		r.decoded, err = server.DecodeMatches(frame)
	}
	r.t[6] = time.Now()
	r.ok = err == nil
	return r
}
