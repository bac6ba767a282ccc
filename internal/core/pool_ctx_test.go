package core_test

// Tests for the deadline-aware pool acquisition layer: AcquireCtx waits
// exactly as long as the context allows, fails with the exhaustion+context
// error chain, and binds and unbinds handles correctly.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

func TestAcquireCtxNilIsAcquire(t *testing.T) {
	rel := boundedRelation(t, 400, 3001, 1)
	h, err := rel.AcquireCtx(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Pool().Outstanding(); got != 1 {
		t.Fatalf("Outstanding() = %d, want 1", got)
	}
	h.Release()
	if got := rel.Pool().Outstanding(); got != 0 {
		t.Fatalf("Outstanding() after Release = %d, want 0", got)
	}
}

func TestAcquireCtxExpiredFailsFastWithoutConsumingCapacity(t *testing.T) {
	rel := boundedRelation(t, 400, 3002, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rel.AcquireCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The failed attempt must not have eaten the pool's only token.
	h, err := rel.TryAcquire()
	if err != nil {
		t.Fatalf("capacity lost to a failed AcquireCtx: %v", err)
	}
	h.Release()
}

func TestAcquireCtxWaitsUntilRelease(t *testing.T) {
	rel := boundedRelation(t, 400, 3003, 1)
	h := rel.Acquire()
	go func() {
		time.Sleep(10 * time.Millisecond)
		h.Release()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	h2, err := rel.AcquireCtx(ctx)
	if err != nil {
		t.Fatalf("AcquireCtx did not wait for the release: %v", err)
	}
	h2.Release()
	if got := rel.Pool().Outstanding(); got != 0 {
		t.Fatalf("Outstanding() = %d, want 0", got)
	}
}

func TestAcquireCtxTimeoutWrapsExhaustionAndContext(t *testing.T) {
	rel := boundedRelation(t, 400, 3004, 1)
	h := rel.Acquire()
	defer h.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := rel.AcquireCtx(ctx)
	if !errors.Is(err, core.ErrSearchersExhausted) {
		t.Errorf("error %v does not wrap ErrSearchersExhausted", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

func TestAcquireCtxBindsHandleAndReleaseUnbinds(t *testing.T) {
	rel := boundedRelation(t, 400, 3005, 2)
	ctx, cancel := context.WithCancel(context.Background())
	h, err := rel.AcquireCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	// The binding's watcher goroutine flags the cancellation off the query
	// path, so a checkpoint observes it within microseconds of the cancel —
	// poll with a generous deadline rather than assuming synchrony.
	deadline := time.Now().Add(5 * time.Second)
	var unwound any
	for unwound == nil && time.Now().Before(deadline) {
		func() {
			defer func() { unwound = recover() }()
			h.Checkpoint()
		}()
		runtime.Gosched()
	}
	if unwound == nil {
		t.Error("Checkpoint on a cancelled binding never unwound")
	} else if c, ok := unwound.(*fault.Cancel); !ok || !errors.Is(c.Err, context.Canceled) {
		t.Errorf("unwound with %v, want *fault.Cancel carrying context.Canceled", unwound)
	}
	h.Release()

	// The recycled handle must come back unbound: the old context's
	// cancellation cannot leak into the next borrower's query.
	h2 := rel.Acquire()
	defer h2.Release()
	h2.Checkpoint() // must not panic
}
