package core_test

// Tests for the SearcherPool concurrency layer: bounded-pool capacity
// semantics (TryAcquire errors, Acquire blocks, handles released after a
// failed attempt stay reusable), handle correctness, deadlock-free ordered
// multi-acquisition, graceful fan-out degradation under an exhausted
// bounded pool, idle handles that outlive a garbage collection, and the
// zero-allocation steady state of pooled queries.

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/testutil"
)

func boundedRelation(t *testing.T, n int, seed int64, bound int) *core.Relation {
	t.Helper()
	pts := testutil.UniformPoints(n, geom.NewRect(0, 0, 1000, 1000), seed)
	return core.NewRelationBounded(testutil.BuildIndex(t, testutil.Grid, pts), bound)
}

func TestBoundedPoolTryAcquireExhaustionAndReuse(t *testing.T) {
	rel := boundedRelation(t, 400, 2001, 2)
	if got := rel.Pool().Bound(); got != 2 {
		t.Fatalf("Bound() = %d, want 2", got)
	}

	h1, err := rel.TryAcquire()
	if err != nil {
		t.Fatalf("first TryAcquire: %v", err)
	}
	h2, err := rel.TryAcquire()
	if err != nil {
		t.Fatalf("second TryAcquire: %v", err)
	}
	if _, err := rel.TryAcquire(); !errors.Is(err, core.ErrSearchersExhausted) {
		t.Fatalf("third TryAcquire over bound 2: err = %v, want ErrSearchersExhausted", err)
	}

	// A handle released after the failed attempt must be reusable and
	// return correct results.
	want := core.KNNSelect(rel, geom.Point{X: 500, Y: 500}, 5, nil)
	h1.Release()
	h3, err := rel.TryAcquire()
	if err != nil {
		t.Fatalf("TryAcquire after Release: %v", err)
	}
	got := core.KNNSelect(h3, geom.Point{X: 500, Y: 500}, 5, nil)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reused handle answer diverges: %v != %v", got, want)
	}
	h3.Release()
	h2.Release()
}

// TestStrayReleaseDoesNotCorruptBoundedPool: releasing a Clone (which
// holds no capacity token) or double-releasing a handle must not inflate a
// bounded pool past its bound or block.
func TestStrayReleaseDoesNotCorruptBoundedPool(t *testing.T) {
	rel := boundedRelation(t, 100, 2011, 1)

	// Clone release with all tokens home: must not block or add capacity.
	rel.Clone().Release()

	h, err := rel.TryAcquire()
	if err != nil {
		t.Fatalf("TryAcquire after clone release: %v", err)
	}
	// Clone release with a token outstanding: must not refill the pool.
	rel.Clone().Release()
	if _, err := rel.TryAcquire(); !errors.Is(err, core.ErrSearchersExhausted) {
		t.Fatalf("clone release inflated the bound: err = %v, want ErrSearchersExhausted", err)
	}

	// Double release: the second call is a no-op, so the bound stays 1.
	h.Release()
	h.Release()
	h2, err := rel.TryAcquire()
	if err != nil {
		t.Fatalf("TryAcquire after double release: %v", err)
	}
	if _, err := rel.TryAcquire(); !errors.Is(err, core.ErrSearchersExhausted) {
		t.Fatalf("double release inflated the bound: err = %v, want ErrSearchersExhausted", err)
	}
	h2.Release()
}

func TestBoundedPoolAcquireBlocksUntilRelease(t *testing.T) {
	rel := boundedRelation(t, 100, 2002, 1)

	h := rel.Acquire()
	acquired := make(chan *core.Relation)
	go func() { acquired <- rel.Acquire() }()

	select {
	case <-acquired:
		t.Fatal("Acquire returned while the bounded pool was exhausted")
	case <-time.After(20 * time.Millisecond):
	}

	h.Release()
	select {
	case h2 := <-acquired:
		h2.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire did not unblock after Release")
	}
}

// TestParallelJoinDegradesOnExhaustedBoundedPool runs the fan-out join
// against an inner relation whose bounded pool cannot supply extra worker
// handles: the crew degrades to the workers it can equip and the result
// still matches the sequential join exactly.
func TestParallelJoinDegradesOnExhaustedBoundedPool(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1000, 1000)
	outer := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(400, bounds, 2008))
	inner := boundedRelation(t, 400, 2009, 1)

	want := core.KNNJoin(outer, inner, 4, nil)

	// Hold the only handle so every extra worker's TryAcquire fails.
	h, err := inner.TryAcquire()
	if err != nil {
		t.Fatal(err)
	}
	got := core.KNNJoinParallel(outer, inner, 4, 8, nil)
	h.Release()

	if !reflect.DeepEqual(got, want) {
		t.Fatal("degraded parallel join diverges from sequential")
	}
}

// TestPooledQuerySteadyStateAllocs proves the pooling machinery itself is
// allocation-free: once the pool is warm, an acquire → neighborhood →
// release cycle performs zero allocations.
func TestPooledQuerySteadyStateAllocs(t *testing.T) {
	pts := testutil.UniformPoints(5000, geom.NewRect(0, 0, 1000, 1000), 2010)
	rel := core.NewRelation(testutil.BuildIndex(t, testutil.Grid, pts))
	f := geom.Point{X: 500, Y: 500}

	// Warm the pool and the handle's scratch buffers.
	h := rel.Acquire()
	h.S.Neighborhood(f, 10, nil)
	h.Release()

	avg := testutil.AllocsPerRun(t, 200, func() {
		h := rel.Acquire()
		h.S.Neighborhood(f, 10, nil)
		h.Release()
	})
	if avg != 0 {
		t.Errorf("pooled query allocates %v per run in steady state, want 0", avg)
	}
}

// TestIdleHandleSurvivesGC: a garbage collection must not take an idle
// handle out of an unbounded pool — the next Acquire gets the same handle
// back, warm, instead of minting a new one.
func TestIdleHandleSurvivesGC(t *testing.T) {
	pts := testutil.UniformPoints(500, geom.NewRect(0, 0, 1000, 1000), 2012)
	rel := core.NewRelation(testutil.BuildIndex(t, testutil.Grid, pts))

	h := rel.Acquire()
	h.Release()
	runtime.GC()
	runtime.GC()
	h2 := rel.Acquire()
	defer h2.Release()
	if h2 != h {
		t.Fatal("Acquire after two GCs minted a new handle; the idle one was dropped")
	}
}
