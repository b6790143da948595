// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed time, checks every answer it measured, and prints
// two JSON lines: the run's identity (machine, Go version, seed, data
// sizes, flush policy) and, last, the result. From the root of a
// checkout:
//
//	python3 perfbench/run.py --workload invrank-paper --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off. With --trace 1 the measured phase runs twice,
// untraced and then traced, and the result carries the per-layer
// metrics: benchmark-side spans around the calls into each module, the
// server's TRACE frames and STATS counters. The spans are written to
// .bench_build/spans when the run ends.
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	invrank-paper  in-process probabilistic inverse ranking on the
//	               paper's synthetic data, 10,000 objects × 1,000 samples
//	knn-serve      open-loop threshold kNN over loopback TCP,
//	               10,000 objects × 32 samples
//	mixed-durable  open-loop UPDATEs on a SyncAlways store with standing
//	               kNN subscriptions and one-shot reads, 50,000 × 8
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports
// every one of them: p50_ms and ops_per_s are about the workload's
// primary operation (an inverse-ranking query, a wire kNN request, an
// acknowledged UPDATE). The tail percentiles are per-layer metrics
// instead: on a 2-core machine hosting server, client, background work
// and a shared disk, the write tail of mixed-durable moved by 25% and
// more between runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"heap_mb", "MiB"},
}

// perLayer are the metrics of a traced run. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"core.filter_ms", "ms"},
	{"core.filter.influence", "count"},
	{"core.filter.dominators", "count"},
	{"core.filter.pruned", "count"},
	{"core.refine_ms", "ms"},
	{"core.refine.l1_ms", "ms"},
	{"core.refine.l2_ms", "ms"},
	{"core.refine.l3_ms", "ms"},
	{"core.refine.l4_ms", "ms"},
	{"core.refine.l5_ms", "ms"},
	{"core.uncertainty", "count"},
	{"domination.ns_per_call", "ns"},
	{"gf.ns_per_expand", "ns"},
	{"uncertain.decomp_ms", "ms"},
	{"rtree.threshold_ms", "ms"},
	{"query.preselect_ms", "ms"},
	{"query.refine_ms", "ms"},
	{"query.prepare_ms", "ms"},
	{"query.eval_ms", "ms"},
	{"query.candidates", "count"},
	{"query.refined", "count"},
	{"query.undecided", "count"},
	{"query.iterations", "count"},
	{"query.refine_share", "ratio"},
	{"query.cache_hit_rate", "ratio"},
	{"server.queue_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.reply_bytes", "bytes"},
	{"client.decode_ms", "ms"},
	{"wire.rest_ms", "ms"},
	{"wal.wait_ms_p50", "ms"},
	{"wal.wait_ms_p99", "ms"},
	{"store.commit_ms", "ms"},
	{"wal.fsyncs_per_write", "count"},
	{"wal.bytes_per_write", "bytes"},
	{"store.checkpoints", "count"},
	{"store.checkpoint.coalesced", "count"},
	{"store.space_amp", "ratio"},
	{"cq.runs_per_write", "count"},
	{"cq.saved_share", "ratio"},
	{"cq.events_per_write", "count"},
	{"invrank.p95_ms", "ms"},
	{"knn.p95_ms", "ms"},
	{"write.p99_ms", "ms"},
	{"push.p50_ms", "ms"},
	{"push.p99_ms", "ms"},
	{"mixed_knn.p50_ms", "ms"},
	{"recover_s", "s"},
	{"loadgen.late_p99_ms", "ms"},
	{"obs.trace_overhead", "ratio"},
	{"attrib.covered_share", "ratio"},
	{"attrib.unexplained_share", "ratio"},
	{"failed_share", "ratio"},
}

// config is one invocation's settings.
type config struct {
	seed     int64
	seconds  float64
	trace    bool
	small    bool   // smoke-test sizes
	spansDir string // where the traced run writes its spans
	workDir  string // scratch space for durable stores
}

// outcome is what a workload reports back to main.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	identity          map[string]any
	spans             *spanLog
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, identity: map[string]any{}}
}

var workloads = map[string]func(config) (*outcome, error){
	"invrank-paper": runInvrank,
	"knn-serve":     runKNNServe,
	"mixed-durable": runMixed,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per phase")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload %v, --seconds > 0, --trace 0|1\n", sortedNames())
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1,
		spansDir: filepath.Join(".bench_build", "spans"), workDir: filepath.Join(".bench_build", "work")}
	res, identity, err := measure(*name, w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	idLine, _ := json.Marshal(map[string]any{"identity": identity})
	fmt.Fprintln(stdout, string(idLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure runs one workload and shapes its outcome into the result line.
func measure(name string, w func(config) (*outcome, error), cfg config) (result, map[string]any, error) {
	out, err := w(cfg)
	if err != nil {
		return result{}, nil, err
	}
	if out.attempted < 1 {
		return result{}, nil, errors.New("no operation was attempted")
	}
	out.identity["workload"] = name
	out.identity["seed"] = cfg.seed
	out.identity["seconds"] = cfg.seconds
	out.identity["trace"] = cfg.trace
	out.identity["nproc"] = runtime.NumCPU()
	out.identity["gomaxprocs"] = runtime.GOMAXPROCS(0)
	out.identity["go_version"] = runtime.Version()

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		out.metrics["failed_share"] = float64(out.failed) / float64(out.attempted)
		if out.spans != nil {
			path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
			if err := out.spans.write(path); err != nil {
				return result{}, nil, err
			}
			out.identity["spans"] = path
		}
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !cfg.trace {
			return result{}, nil, fmt.Errorf("workload did not report %s", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, out.identity, nil
}

func sortedNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// deadline returns the end of a measured phase that starts now.
func deadline(cfg config) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}
