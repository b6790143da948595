package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// quantile returns the nearest-rank p-quantile (0 < p <= 1) of xs; 0
// when xs is empty. xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapMiB forces a collection and returns the live heap in MiB.
func heapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// settledHeapMiB is the live heap once background work that finishes
// after the timed phase (subscription maintenance, checkpoint encoding,
// pushes in flight) has let go of its buffers: heapMiB read every 200ms
// until two readings agree within 1%, at most 15 times.
func settledHeapMiB() float64 {
	prev := heapMiB()
	for i := 0; i < 15; i++ {
		time.Sleep(200 * time.Millisecond)
		cur := heapMiB()
		if math.Abs(cur-prev) <= 0.01*prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// repeatSetup runs setup n times, keeps the last state, and returns it
// with the median set-up time. Earlier states are released before the
// next attempt so that two never share the heap.
func repeatSetup[T any](n int, setup func() (T, error), release func(T)) (T, float64, error) {
	var (
		env   T
		times []float64
	)
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			release(e)
			continue
		}
		env = e
	}
	return env, median(times), nil
}

// openLoop issues n requests on a fixed schedule: request i is due at
// start + i·gap whatever happened to earlier ones, and runs on its own
// goroutine so that a slow reply never delays a later send. It returns
// when every request has completed, with how late each was issued.
func openLoop(n int, gap time.Duration, do func(i int, due time.Time)) []float64 {
	late := make([]float64, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * gap)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = ms(time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(i, due)
		}()
	}
	wg.Wait()
	return late
}

// span is one timed interval of the traced run. Source says where its
// bounds come from: "bench" spans are timed by the benchmark around a
// call; "server" spans are durations the server reported in a TRACE
// frame, laid out in order from their parent's start; "replay" spans
// time the same work re-run in process after the request, to split a
// cost the wire does not report.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Source string `json:"source"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the spans of a run in memory; write saves them at the
// end. Times are nanoseconds since the log was created.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a span and returns its ID (IDs start at 1; parent 0 marks
// a root).
func (l *spanLog) add(parent, query int, name, source string, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Query: query, Name: name, Source: source,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds(),
	})
	return id
}

// addServer records server-reported durations as consecutive children
// of parent, starting at the parent's start.
func (l *spanLog) addServer(parent, query int, at time.Time, names []string, durs []time.Duration) {
	for i, name := range names {
		l.add(parent, query, name, "server", at, at.Add(durs[i]))
		at = at.Add(durs[i])
	}
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// attribution sets the coverage metrics from the wall time of the
// primary operations and the part of it named layer spans cover.
func attribution(out *outcome, wall, covered float64) {
	share := math.Min(1, ratio(covered, wall))
	out.metrics["attrib.covered_share"] = share
	out.metrics["attrib.unexplained_share"] = 1 - share
}
