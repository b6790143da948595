// Live monitoring: a dispatch center tracks a courier fleet whose GPS
// fixes are uncertain (urban-canyon noise), and keeps a standing
// question open — "which couriers are, with at least 60% probability,
// among the 3 nearest to the depot?" Instead of re-running the
// probabilistic kNN query on every position report, a continuous-query
// subscription maintains the answer incrementally: position updates
// stream through the store, only the subscription's influence region is
// consulted, and the dispatcher receives ordered enter/leave/bounds
// events with exact probability bounds.
//
//	go run ./examples/monitor
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"probprune"
)

const (
	fleet = 120
	k     = 3
	tau   = 0.6
)

func courier(rng *rand.Rand, id int, cx, cy float64) *probprune.Object {
	// A GPS fix with position-dependent noise: 12 weighted alternative
	// positions around the reported location.
	noise := 0.004 + rng.Float64()*0.012
	pts := make([]probprune.Point, 12)
	for i := range pts {
		pts[i] = probprune.Point{cx + rng.NormFloat64()*noise, cy + rng.NormFloat64()*noise}
	}
	o, err := probprune.NewObject(id, pts)
	if err != nil {
		log.Fatal(err)
	}
	return o
}

func main() {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))

	// The fleet starts scattered across the city (unit square).
	pos := make([][2]float64, fleet)
	db := make(probprune.Database, fleet)
	for i := range db {
		pos[i] = [2]float64{rng.Float64(), rng.Float64()}
		db[i] = courier(rng, i, pos[i][0], pos[i][1])
	}
	store, err := probprune.NewStore(db, probprune.Options{MaxIterations: 4})
	if err != nil {
		log.Fatal(err)
	}

	monitor := probprune.NewMonitor(store, probprune.MonitorOptions{Buffer: 256})
	defer monitor.Close()

	depot := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
	sub, err := monitor.Subscribe("", probprune.KNNSubscription, depot, k, tau)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("standing query: %d nearest couriers to the depot with P >= %.0f%%\n\n", k, tau*100)

	// The dispatcher's board, kept current purely from the event stream.
	board := map[int]probprune.Interval{}
	drain := func() {
		for {
			select {
			case ev, ok := <-sub.Events():
				if !ok {
					log.Fatalf("subscription ended: %v", sub.Err())
				}
				switch ev.Kind {
				case probprune.ObjectEntered:
					board[ev.Object.ID] = ev.Match.Prob
					fmt.Printf("  v%-3d + courier %-3d entered   P ∈ [%.3f, %.3f]\n",
						ev.Version, ev.Object.ID, ev.Match.Prob.LB, ev.Match.Prob.UB)
				case probprune.ObjectLeft:
					delete(board, ev.Object.ID)
					fmt.Printf("  v%-3d - courier %-3d left\n", ev.Version, ev.Object.ID)
				case probprune.BoundsChanged:
					board[ev.Object.ID] = ev.Match.Prob
					fmt.Printf("  v%-3d ~ courier %-3d bounds    P ∈ [%.3f, %.3f]\n",
						ev.Version, ev.Object.ID, ev.Match.Prob.LB, ev.Match.Prob.UB)
				}
			default:
				return
			}
		}
	}
	drain()

	// Six rounds of position reports: every courier drifts, couriers
	// near the depot drift toward or away from it. Each round is a burst
	// of live Updates; the monitor wakes the subscription only when a
	// report lands inside its influence region.
	for round := 1; round <= 6; round++ {
		fmt.Printf("round %d: fleet reports positions\n", round)
		for i := range pos {
			pos[i][0] += rng.NormFloat64() * 0.05
			pos[i][1] += rng.NormFloat64() * 0.05
			if pos[i][0] < 0 {
				pos[i][0] = -pos[i][0]
			}
			if pos[i][1] < 0 {
				pos[i][1] = -pos[i][1]
			}
			if err := store.UpdateCtx(ctx, courier(rng, i, pos[i][0], pos[i][1])); err != nil {
				log.Fatal(err)
			}
		}
		if err := monitor.Sync(ctx); err != nil {
			log.Fatal(err)
		}
		drain()
	}

	fmt.Printf("\nfinal board (%d couriers):\n", len(board))
	for id, p := range board {
		fmt.Printf("  courier %-3d P ∈ [%.3f, %.3f]\n", id, p.LB, p.UB)
	}
	st := monitor.Stats()
	fmt.Printf("\nmaintenance: %d changes processed, %d wake-ups, %d IDCA runs (vs %d couriers x %d rounds re-queried)\n",
		st.Changes, st.Woken, st.Runs, fleet, 6)
}
