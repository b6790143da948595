// Command durable demonstrates the durability layer end to end: a
// store is bootstrapped on disk, serves journaled commits and standing
// subscriptions, checkpoints, and is then "killed" and reopened — the
// recovered store picks up at the exact pre-crash state (same version,
// same answers, decompositions already materialized), and a monitor
// with a durable cursor resumes its subscription with only the delta
// since its last save.
//
//	go run ./examples/durable
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"probprune"
)

// drain consumes every buffered event (the monitor is idle between the
// example's phases, so the buffer is complete).
func drain(sub *probprune.Subscription) int {
	n := 0
	for {
		select {
		case <-sub.Events():
			n++
		default:
			return n
		}
	}
}

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "probprune-durable-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := probprune.Synthetic(probprune.SyntheticConfig{
		N: 500, Samples: 64, MaxExtent: 0.03, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Bootstrap: the initial database becomes the first checkpoint;
	// every later commit is journaled before it applies. SyncBackground
	// fsyncs once a second (the everysec trade); CheckpointEvery
	// compacts the log automatically.
	popts := probprune.PersistOptions{
		Dir:             filepath.Join(dir, "db"),
		Sync:            probprune.SyncBackground,
		CheckpointEvery: 256,
	}
	store, err := probprune.BootstrapStore(db, popts, probprune.Options{MaxIterations: 5})
	if err != nil {
		log.Fatal(err)
	}

	// A standing query with a durable identity: its result set rides
	// the monitor's cursor file.
	cursor := filepath.Join(dir, "cursor")
	monitor := probprune.NewMonitor(store, probprune.MonitorOptions{
		Buffer:     4096,
		CursorPath: cursor,
	})
	q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
	sub, err := monitor.Subscribe("dashboard", probprune.KNNSubscription, q, 5, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("standing query starts with %d results\n", drain(sub))

	// Serve: journaled live commits, streamed to the subscription.
	for i := 0; i < 100; i++ {
		o := probprune.PointObject(10000+i, probprune.Point{0.48 + float64(i)*0.0005, 0.5})
		if err := store.InsertCtx(ctx, o); err != nil {
			log.Fatal(err)
		}
	}
	if err := monitor.Sync(ctx); err != nil { // catch up
		log.Fatal(err)
	}
	fmt.Printf("serving 100 commits streamed %d events\n", drain(sub))
	if err := monitor.Close(); err != nil { // saves the cursor at head
		log.Fatal(err)
	}
	before := store.KNN(q, 5, 0.5)
	version := store.Version()
	if err := store.Close(); err != nil { // "crash": the journal stays behind
		log.Fatal(err)
	}

	// Recovery: checkpoint + log tail replay, bit-identical state.
	reopened, err := probprune.OpenStore(popts, probprune.Options{MaxIterations: 5})
	if err != nil {
		log.Fatal(err)
	}
	defer reopened.Close()
	fmt.Printf("reopened at version %d (pre-crash %d)\n", reopened.Version(), version)
	after := reopened.KNN(q, 5, 0.5)
	same := len(before) == len(after)
	for i := 0; same && i < len(before); i++ {
		same = before[i].Object.ID == after[i].Object.ID && before[i].Prob == after[i].Prob
	}
	fmt.Printf("recovered answers bit-identical: %v\n", same)

	// The resumed monitor: same cursor, same name — nothing to replay,
	// because the cursor was saved at the head.
	monitor2 := probprune.NewMonitor(reopened, probprune.MonitorOptions{
		Buffer:     4096,
		CursorPath: cursor,
	})
	defer monitor2.Close()
	sub2, err := monitor2.Subscribe("dashboard", probprune.KNNSubscription, q, 5, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed subscription replays %d events (cursor was current)\n", drain(sub2))

	// Commits after the resume stream as usual.
	if err := reopened.InsertCtx(ctx, probprune.PointObject(20000, probprune.Point{0.5, 0.5})); err != nil {
		log.Fatal(err)
	}
	ev := <-sub2.Events()
	fmt.Printf("post-resume event: %v object %d at version %d\n", ev.Kind, ev.Object.ID, ev.Version)
}
