package cq

import (
	"context"
	"math/rand"
	"testing"

	"probprune/internal/core"
)

// TestSavedCounter: a woken subscription that decides most candidates
// from persisted verdicts must report those decisions in Stats().Saved,
// and the monitor-wide counter must equal the sum of the
// per-subscription ones. Saved is the observable half of the
// incremental-maintenance economy (Runs is the other).
func TestSavedCounter(t *testing.T) {
	ctx := testCtx(t)
	db := testDB(t, 500, 31)
	store := newTestStore(t, db, core.Options{MaxIterations: 2})
	m := NewMonitor(store, Options{Buffer: 1 << 14, Policy: DropOldest})
	defer m.Close()

	rng := rand.New(rand.NewSource(33))
	const nSubs, k = 4, 5
	subs := make([]*Subscription, nSubs)
	for i := range subs {
		q := objectNear(rng, -(i + 1), rng.Float64(), rng.Float64(), 0.02)
		sub, err := m.Subscribe("", KNN, q, k, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	if got := m.Stats().Saved; got != 0 {
		t.Fatalf("Saved before any mutation: %d", got)
	}

	// Mutate until at least one subscription has been woken; a single
	// moved object leaves the verdicts of everyone else's candidates
	// standing, so wakes imply saves.
	for step := 0; m.Stats().Woken == 0 && step < 50; step++ {
		victim := db[rng.Intn(len(db))].ID
		if err := store.UpdateCtx(context.Background(), objectNear(rng, victim, rng.Float64(), rng.Float64(), 0.02)); err != nil {
			t.Fatal(err)
		}
		if err := m.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Woken == 0 {
		t.Fatal("no subscription woke after 50 mutations — cannot exercise Saved")
	}
	if st.Saved == 0 {
		t.Fatalf("woken %d times but Saved == 0 — every candidate re-ran", st.Woken)
	}

	var sum uint64
	for _, sub := range subs {
		sum += sub.Stats().Saved
	}
	if sum != st.Saved {
		t.Fatalf("per-subscription Saved sums to %d, monitor reports %d", sum, st.Saved)
	}
}

// TestAccessorsAndCursorOps covers the small introspection surface:
// subscription accessors, monitor gauges, the kind/policy/event-kind
// names, and the durable-cursor Forget/HasCursorSub round trip.
func TestAccessorsAndCursorOps(t *testing.T) {
	db := testDB(t, 50, 41)
	store := newTestStore(t, db, core.Options{MaxIterations: 2})
	cursorPath := t.TempDir() + "/cursor"
	m := NewMonitor(store, Options{Buffer: 1 << 10, CursorPath: cursorPath})
	defer m.Close()

	rng := rand.New(rand.NewSource(43))
	q := objectNear(rng, -1, 0.4, 0.4, 0.02)
	sub, err := m.Subscribe("acc", KNN, q, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Kind() != KNN || sub.Name() != "acc" || sub.K() != 3 || sub.Query() != q {
		t.Fatalf("accessors: kind=%v name=%q k=%d", sub.Kind(), sub.Name(), sub.K())
	}
	if got := m.NumSubscriptions(); got != 1 {
		t.Fatalf("NumSubscriptions = %d, want 1", got)
	}
	if got := m.QueueLen(); got < 0 {
		t.Fatalf("QueueLen = %d", got)
	}

	// The cursor records a durable subscription's resume state when the
	// subscription ends (or on SaveCursor), not while it is live.
	if m.HasCursorSub("acc") {
		t.Fatal("cursor has resume state before any save")
	}
	if err := m.Forget("acc"); err == nil {
		t.Fatal("Forget succeeded while the name is live")
	}
	sub.Cancel()
	for range sub.Events() {
	}
	if err := sub.Err(); err != ErrUnsubscribed {
		t.Fatalf("Err = %v, want ErrUnsubscribed", err)
	}
	if !m.HasCursorSub("acc") {
		t.Fatal("cursor did not remember the ended durable subscription")
	}
	if err := m.Forget("acc"); err != nil {
		t.Fatalf("Forget after unsubscribe: %v", err)
	}
	if m.HasCursorSub("acc") {
		t.Fatal("cursor still knows a forgotten name")
	}

	for _, c := range []struct{ got, want string }{
		{KNN.String(), "knn"},
		{RKNN.String(), "rknn"},
		{ObjectEntered.String(), "entered"},
		{ObjectLeft.String(), "left"},
		{BoundsChanged.String(), "bounds"},
		{EventKind(99).String(), "unknown"},
		{DropOldest.String(), "drop-oldest"},
		{DisconnectSlow.String(), "disconnect-slow"},
	} {
		if c.got != c.want {
			t.Fatalf("String() = %q, want %q", c.got, c.want)
		}
	}
}
