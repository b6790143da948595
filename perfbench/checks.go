package main

import (
	"math"
	"time"

	"probprune/internal/geom"
	"probprune/internal/gf"
	"probprune/internal/query"
	"probprune/internal/server"
	"probprune/internal/uncertain"
)

// The answer checks. Each returns whether the answer is right; the
// workloads count every wrong answer as a failed operation.

// boundsEps absorbs floating-point rounding in sums of probabilities.
const boundsEps = 1e-9

// rankSane checks an inverse-ranking reply: LB <= UB for every rank,
// and Σ LB <= 1 <= Σ UB.
func rankSane(ivs []gf.Interval) bool {
	lo, hi := 0.0, 0.0
	for _, iv := range ivs {
		if !(iv.LB <= iv.UB) {
			return false
		}
		lo += iv.LB
		hi += iv.UB
	}
	return lo <= 1+boundsEps && hi >= 1-boundsEps
}

// exactInside checks that the exact count PDF lies inside every bound.
func exactInside(bounds []gf.Interval, exact []float64) bool {
	if len(bounds) != len(exact) {
		return false
	}
	for k, p := range exact {
		if !bounds[k].Contains(p, boundsEps) {
			return false
		}
	}
	return true
}

// sameIntervals reports bit-identical bounds.
func sameIntervals(a, b []gf.Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// wireMatch is the wire form of an in-process match.
func wireMatch(m query.Match) server.Match {
	w := server.Match{LB: m.Prob.LB, UB: m.Prob.UB, IsResult: m.IsResult, Decided: m.Decided, Iterations: m.Iterations}
	if m.Object != nil {
		w.ID = m.Object.ID
	}
	return w
}

// replyDigest folds a wire reply into 64 bits (FNV-1a over every field,
// floats by their bit patterns), so that a run can check every reply
// against the in-process answer without keeping N matches per request
// alive while it measures.
func replyDigest(ms []server.Match) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(len(ms)))
	for _, m := range ms {
		flags := uint64(0)
		if m.IsResult {
			flags |= 1
		}
		if m.Decided {
			flags |= 2
		}
		mix(uint64(m.ID))
		mix(math.Float64bits(m.LB))
		mix(math.Float64bits(m.UB))
		mix(flags)
		mix(uint64(m.Iterations))
	}
	return h
}

// answerDigest is replyDigest of the wire form of an in-process answer.
func answerDigest(ms []query.Match) uint64 {
	w := make([]server.Match, len(ms))
	for i, m := range ms {
		w[i] = wireMatch(m)
	}
	return replyDigest(w)
}

// write is one UPDATE the load generator issued.
type write struct {
	obj   *uncertain.Object
	sent  time.Time
	acked time.Time // zero when the write failed
}

// lostWrites counts the objects whose recovered state is not the last
// acknowledged write of that object. Writes to one object are issued at
// least a few hundred writes apart; should two still have been in
// flight together, either may have been applied last, and either is
// accepted.
func lostWrites(writes []write, get func(id int) (*uncertain.Object, bool)) int {
	byID := map[int][]write{}
	for _, w := range writes {
		if !w.acked.IsZero() {
			byID[w.obj.ID] = append(byID[w.obj.ID], w)
		}
	}
	lost := 0
	for id, ws := range byID {
		last := ws[0]
		for _, w := range ws[1:] {
			if w.sent.After(last.sent) {
				last = w
			}
		}
		got, ok := get(id)
		found := false
		for _, w := range ws {
			if !w.acked.Before(last.sent) && ok && sameSamples(got.Samples, w.obj.Samples) {
				found = true
				break
			}
		}
		if !found {
			lost++
		}
	}
	return lost
}

func sameSamples(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				return false
			}
		}
	}
	return true
}

// subView rebuilds a subscription's result set from its event stream:
// object ID -> bounds. ok is false when the stream contradicts itself
// (an object entering twice, leaving without having entered, ...).
func subView(evs []server.EventMsg) (view map[int]gf.Interval, ok bool) {
	view = map[int]gf.Interval{}
	for _, ev := range evs {
		id := ev.Object.ID
		_, in := view[id]
		iv := gf.Interval{LB: ev.Match.LB, UB: ev.Match.UB}
		switch ev.Kind {
		case server.EvEntered:
			if in || !ev.Match.IsResult {
				return view, false
			}
			view[id] = iv
		case server.EvLeft:
			if !in || ev.Match.IsResult {
				return view, false
			}
			delete(view, id)
		case server.EvBounds:
			if !in || view[id] == iv {
				return view, false
			}
			view[id] = iv
		default:
			return view, false
		}
	}
	return view, true
}

// subMatches checks a subscription's initial set plus its pushed
// events against a direct kNN at the final version.
func subMatches(evs []server.EventMsg, direct []query.Match) bool {
	view, ok := subView(evs)
	if !ok {
		return false
	}
	n := 0
	for _, m := range direct {
		if !m.IsResult {
			continue
		}
		n++
		if iv, in := view[m.Object.ID]; !in || iv != m.Prob {
			return false
		}
	}
	return n == len(view)
}
