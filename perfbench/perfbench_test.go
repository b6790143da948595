package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"probprune/internal/core"
	"probprune/internal/geom"
	"probprune/internal/gf"
	"probprune/internal/query"
	"probprune/internal/server"
	"probprune/internal/uncertain"
	"probprune/internal/workload"
)

func smallConfig(t *testing.T, trace bool) config {
	return config{seed: 3, seconds: 1, trace: trace, small: true, spansDir: t.TempDir(), workDir: t.TempDir()}
}

// TestWorkloadsSmoke runs every workload at smoke size, untraced and
// traced: no operation may fail, and every metric must be reported —
// the end-to-end ones with a value above zero.
func TestWorkloadsSmoke(t *testing.T) {
	for name, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := smallConfig(t, trace)
			res, identity, err := measure(name, w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || (!trace && m.Value <= 0) {
					t.Errorf("%s trace=%v: metric %s = %+v", name, trace, d.name, m)
				}
			}
			for _, k := range []string{"nproc", "gomaxprocs", "go_version", "seed", "flush_policy", "objects", "samples"} {
				if _, ok := identity[k]; !ok {
					t.Errorf("%s: identity lacks %s", name, k)
				}
			}
			if trace {
				if res.Metrics["attrib.covered_share"].Value+res.Metrics["attrib.unexplained_share"].Value != 1 {
					t.Errorf("%s: attribution shares do not add up", name)
				}
				if _, err := os.Stat(identity["spans"].(string)); err != nil {
					t.Errorf("%s: spans not written: %v", name, err)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the binary's metric
// catalog in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the binary has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		json []metric
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the binary %d", len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %+v, binary %+v", i, c.json[i], d)
			}
		}
	}
}

func nextUp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }

// TestChecksCatchOneULP: a bound moved by one ulp fails both the
// traced-vs-untraced inverse-ranking check and the wire-vs-in-process
// kNN check.
func TestChecksCatchOneULP(t *testing.T) {
	db, err := workload.Synthetic(workload.SyntheticConfig{N: 300, Dim: 2, MaxExtent: 0.02, Samples: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	store, err := query.NewStore(db, core.Options{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := workload.Queries(db, 1, 10, geom.L2, 5)[0]
	ranks := store.InverseRank(q.Target, q.Reference).Ranks
	if !rankSane(ranks) || !sameIntervals(ranks, store.InverseRank(q.Target, q.Reference).Ranks) {
		t.Fatal("checks reject a correct answer")
	}
	shifted := append([]gf.Interval(nil), ranks...)
	shifted[0].UB = nextUp(shifted[0].UB)
	if sameIntervals(ranks, shifted) {
		t.Error("a one-ulp bound shift passed the inverse-ranking check")
	}

	matches := store.KNN(q.Reference, 5, 0.3)
	wire := make([]server.Match, len(matches))
	for i, m := range matches {
		wire[i] = wireMatch(m)
	}
	if replyDigest(wire) != answerDigest(matches) {
		t.Fatal("checks reject a correct kNN reply")
	}
	for i := range wire {
		if wire[i].UB > 0 {
			wire[i].LB = nextUp(wire[i].LB)
			break
		}
	}
	if replyDigest(wire) == answerDigest(matches) {
		t.Error("a one-ulp bound shift passed the kNN reply check")
	}
}

// TestChecksCatchLostWriteAndMissingPush runs the durable workload at
// smoke size, then replays its checks with one acknowledged write
// dropped from the recovered store and one push dropped from a stream.
func TestChecksCatchLostWriteAndMissingPush(t *testing.T) {
	cfg := smallConfig(t, false)
	sz := cfg.mixedSize()
	env, err := setupMixed(sz, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	writes := make([]write, len(env.updates))
	p := mixedRun(env, sz, writes, env.updates, env.reads, false)
	if p.writeFailed != 0 {
		t.Fatalf("%d writes failed", p.writeFailed)
	}
	out := newOutcome()
	if _, err := mixedCheckSubs(env, out); err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("%d subscriptions failed the check on a correct run", out.failed)
	}

	// Missing push: drop the first pushed event of some subscription.
	direct := func(q *uncertain.Object) []query.Match { return env.store.KNN(q, knnK, knnTau) }
	stats, err := env.srv.conns[1].Stats()
	if err != nil {
		t.Fatal(err)
	}
	pushed := stats["server.pushed"]
	if n := subFailures(env.subs, pushed, direct); n != 0 {
		t.Fatalf("subFailures = %d on a correct run", n)
	}
	dropped := false
	for _, s := range env.subs {
		for j, ev := range s.events {
			if ev.Version > env.v0 && !dropped {
				kept := s.events
				s.events = append(append([]server.EventMsg(nil), kept[:j]...), kept[j+1:]...)
				if n := subFailures(env.subs, pushed, direct); n == 0 {
					t.Error("a missing push passed the subscription check")
				}
				s.events = kept
				dropped = true
			}
		}
	}
	if !dropped {
		t.Fatal("the run produced no push to drop")
	}

	// Lost write: the recovered store answers one updated object with
	// its state from before its last acknowledged write.
	env.srv.close()
	env.stopWatch()
	if err := env.store.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err := query.OpenStore(env.popts, mixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if n := lostWrites(writes, rs.Get); n != 0 {
		t.Fatalf("%d writes lost on a correct run", n)
	}
	victim := writes[len(writes)-1].obj.ID
	var before *uncertain.Object
	for _, w := range writes[:len(writes)-1] {
		if w.obj.ID == victim {
			before = w.obj
		}
	}
	if before == nil {
		db, err := workload.Synthetic(workload.SyntheticConfig{
			N: sz.n, Dim: 2, MaxExtent: 0.004, Samples: sz.samples, Seed: cfg.seed})
		if err != nil {
			t.Fatal(err)
		}
		before = db[victim]
	}
	get := func(id int) (*uncertain.Object, bool) {
		if id == victim {
			return before, true
		}
		return rs.Get(id)
	}
	if n := lostWrites(writes, get); n != 1 {
		t.Errorf("lostWrites = %d with one acknowledged write dropped, want 1", n)
	}
}
