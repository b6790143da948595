package probprune_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"probprune"
)

// TestContinuousQueryAPI exercises the continuous-query surface through
// the root package: watch a live store through a standing subscription
// and through the raw Store.Watch hook, end-to-end.
func TestContinuousQueryAPI(t *testing.T) {
	db, err := probprune.Synthetic(probprune.SyntheticConfig{N: 80, Samples: 4, MaxExtent: 0.02, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	store, err := probprune.NewStore(db, probprune.Options{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Raw change hook.
	var changes []probprune.Change
	snap, stop := store.Watch(func(ch probprune.Change) { changes = append(changes, ch) })
	if snap.Version() != store.Version() {
		t.Fatalf("watch snapshot version %d, store %d", snap.Version(), store.Version())
	}
	defer stop()

	monitor := probprune.NewMonitor(store, probprune.MonitorOptions{Buffer: 1024})
	defer monitor.Close()

	q := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
	sub, err := monitor.Subscribe("", probprune.KNNSubscription, q, 3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Kind() != probprune.KNNSubscription {
		t.Fatalf("kind %v, want KNN", sub.Kind())
	}

	// A burst of mutations near the query point must produce events.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5; i++ {
		pts := []probprune.Point{
			{0.5 + rng.Float64()*0.01, 0.5 + rng.Float64()*0.01},
			{0.5 + rng.Float64()*0.01, 0.5 + rng.Float64()*0.01},
		}
		o, err := probprune.NewObject(1000+i, pts)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.InsertCtx(context.Background(), o); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := monitor.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if len(changes) != 5 {
		t.Fatalf("watch saw %d changes, want 5", len(changes))
	}
	for i, ch := range changes {
		if ch.Kind != probprune.ChangeInsert {
			t.Fatalf("change %d kind %v, want insert", i, ch.Kind)
		}
	}
	entered := 0
	for {
		select {
		case ev := <-sub.Events():
			if ev.Kind == probprune.ObjectEntered && ev.Object.ID >= 1000 {
				entered++
			}
			continue
		default:
		}
		break
	}
	if entered == 0 {
		t.Fatal("no ObjectEntered events for objects inserted on top of the query")
	}

	sub.Cancel()
	for range sub.Events() {
	}
	if !errors.Is(sub.Err(), probprune.ErrUnsubscribed) {
		t.Fatalf("Err = %v, want ErrUnsubscribed", sub.Err())
	}

	// BatchCtx through the root alias.
	if err := store.BatchCtx(ctx, func(ctx context.Context, e *probprune.Engine) error {
		_, err := e.KNNCtx(ctx, q, 3, 0.4)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}
