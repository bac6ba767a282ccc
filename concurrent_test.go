package twoknn_test

// Concurrency tests for the public API: every top-level query entry point
// must be safe to call from many goroutines against one shared *Relation,
// and every concurrent evaluation must return results byte-identical to
// the serial path. Run with -race (the CI race job does) to validate the
// synchronization of the searcher pool, the parallel fan-out and the
// atomic stats counters.

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	twoknn "repro"
)

func randomPoints(n int, seed int64) []twoknn.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]twoknn.Point, n)
	for i := range pts {
		pts[i] = twoknn.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	return pts
}

// mixedQueryShapes returns one closure per query shape, each evaluating
// against the shared relations and returning its result for comparison.
func mixedQueryShapes(t *testing.T, a, b, c *twoknn.Relation, opts ...twoknn.QueryOption) map[string]func() any {
	t.Helper()
	f1 := twoknn.Point{X: 300, Y: 700}
	f2 := twoknn.Point{X: 650, Y: 350}
	rng := twoknn.NewRect(250, 250, 750, 750)
	const k = 5

	check := func(v any, err error) any {
		if err != nil {
			t.Errorf("query error: %v", err)
		}
		return v
	}
	return map[string]func() any{
		"KNNSelect": func() any { return check(b.KNNSelect(f1, k, opts...)) },
		"KNNJoin":   func() any { return check(twoknn.KNNJoin(a, b, k, opts...)) },
		"SelectInnerJoin": func() any {
			return check(twoknn.SelectInnerJoin(a, b, f1, k, 3*k, opts...))
		},
		"SelectOuterJoin": func() any {
			return check(twoknn.SelectOuterJoin(a, b, f1, 3*k, k, opts...))
		},
		"TwoSelects": func() any {
			return check(twoknn.TwoSelects(b, f1, 6*k, f2, 8*k, opts...))
		},
		"UnchainedJoins": func() any {
			return check(twoknn.UnchainedJoins(a, b, c, k, k, opts...))
		},
		"ChainedJoins": func() any {
			return check(twoknn.ChainedJoins(a, b, c, k, k, opts...))
		},
		"RangeInnerJoin": func() any {
			return check(twoknn.RangeInnerJoin(a, b, rng, k, opts...))
		},
	}
}

// TestConcurrentMixedQueriesMatchSerial runs 16 goroutines of mixed query
// shapes against one shared relation set — half of them additionally
// fanning each query out with WithConcurrency — and requires every result
// to be byte-identical to the serial evaluation. A shared *Stats collects
// counters across all goroutines to exercise the atomic counter paths.
func TestConcurrentMixedQueriesMatchSerial(t *testing.T) {
	buildRel := func(name string, pts []twoknn.Point) *twoknn.Relation {
		rel, err := twoknn.NewRelation(name, pts, twoknn.WithBlockCapacity(32))
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	a := buildRel("a", randomPoints(500, 71))
	b := buildRel("b", randomPoints(700, 72))
	c := buildRel("c", randomPoints(400, 73))

	serial := map[string]any{}
	for name, run := range mixedQueryShapes(t, a, b, c) {
		serial[name] = run()
	}
	if t.Failed() {
		t.Fatal("serial evaluation failed")
	}

	const goroutines = 16
	const iters = 3
	var shared twoknn.Stats

	var wg sync.WaitGroup
	var mu sync.Mutex
	failures := map[string]int{}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opts := []twoknn.QueryOption{twoknn.WithStats(&shared)}
			if g%2 == 1 {
				opts = append(opts, twoknn.WithConcurrency(2))
			}
			shapes := mixedQueryShapes(t, a, b, c, opts...)
			for i := 0; i < iters; i++ {
				for name, run := range shapes {
					if got := run(); !reflect.DeepEqual(got, serial[name]) {
						mu.Lock()
						failures[name]++
						mu.Unlock()
					}
				}
			}
		}(g)
	}
	wg.Wait()

	for name, n := range failures {
		t.Errorf("%s: %d of %d concurrent evaluations diverged from the serial result", name, n, goroutines*iters)
	}
	if shared.Neighborhoods == 0 {
		t.Error("shared stats recorded nothing")
	}
}

// TestConcurrentQueriesOnBoundedRelation drives more goroutines than the
// searcher bound allows simultaneously: queries beyond the bound must
// block and then complete correctly once handles free up — never error,
// never deadlock, never return wrong answers.
func TestConcurrentQueriesOnBoundedRelation(t *testing.T) {
	rel, err := twoknn.NewRelation("bounded", randomPoints(600, 74),
		twoknn.WithMaxSearchers(4), twoknn.WithBlockCapacity(32))
	if err != nil {
		t.Fatal(err)
	}
	f := twoknn.Point{X: 500, Y: 500}
	want, err := rel.KNNSelect(f, 8)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 32
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := rel.KNNSelect(f, 8)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("bounded-pool query diverged from serial result")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("bounded-pool query errored: %v", err)
	}
}

// TestBoundedCloneMixDoesNotDeadlock is a regression test: a relation and
// its Clone are distinct *Relation values sharing one searcher pool, so a
// query probing both sides must share one handle — keyed on the pool, not
// on pointer identity — or a pool bounded at one handle self-deadlocks.
func TestBoundedCloneMixDoesNotDeadlock(t *testing.T) {
	rel, err := twoknn.NewRelation("orig", randomPoints(300, 76), twoknn.WithMaxSearchers(1))
	if err != nil {
		t.Fatal(err)
	}
	clone := rel.Clone()
	f := twoknn.Point{X: 500, Y: 500}

	want, err := twoknn.SelectOuterJoin(rel, rel, f, 5, 3)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan []twoknn.Pair, 2)
	go func() {
		got, err := twoknn.SelectOuterJoin(rel, clone, f, 5, 3)
		if err != nil {
			t.Errorf("rel/clone select-outer-join: %v", err)
		}
		done <- got
	}()
	go func() {
		got, err := twoknn.ChainedJoins(rel, clone, rel, 3, 3)
		if err != nil {
			t.Errorf("rel/clone chained join: %v", err)
		}
		if got == nil {
			t.Error("rel/clone chained join returned nothing")
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		select {
		case got := <-done:
			if got != nil && !reflect.DeepEqual(got, want) {
				t.Error("rel/clone query diverged from rel/rel result")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("query over a relation and its clone deadlocked on the bounded pool")
		}
	}
}

// TestConcurrentSelfJoin exercises the duplicate-relation path on a
// relation bounded to a single searcher: the same *Relation on both sides
// of a query, from many goroutines, with and without fan-out. KNNJoin
// probes only the inner searcher; SelectOuterJoin probes both sides, and
// SelectInnerJoin's block marking scans the outer while it probes the
// inner, so neither may deadlock (bounded pool of one) nor corrupt results.
func TestConcurrentSelfJoin(t *testing.T) {
	rel, err := twoknn.NewRelation("self", randomPoints(400, 75), twoknn.WithMaxSearchers(1))
	if err != nil {
		t.Fatal(err)
	}
	f := twoknn.Point{X: 500, Y: 500}
	wantJoin, err := twoknn.KNNJoin(rel, rel, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantSel, err := twoknn.SelectOuterJoin(rel, rel, f, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantInner, err := twoknn.SelectInnerJoin(rel, rel, f, 3, 10)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var opts []twoknn.QueryOption
			if g%2 == 1 {
				opts = append(opts, twoknn.WithConcurrency(4))
			}
			gotJoin, err := twoknn.KNNJoin(rel, rel, 3, opts...)
			if err != nil {
				t.Errorf("self-join: %v", err)
				return
			}
			gotSel, err := twoknn.SelectOuterJoin(rel, rel, f, 10, 3, opts...)
			if err != nil {
				t.Errorf("self select-outer-join: %v", err)
				return
			}
			gotInner, err := twoknn.SelectInnerJoin(rel, rel, f, 3, 10, opts...)
			if err != nil {
				t.Errorf("self select-inner-join: %v", err)
				return
			}
			if !reflect.DeepEqual(gotJoin, wantJoin) || !reflect.DeepEqual(gotSel, wantSel) || !reflect.DeepEqual(gotInner, wantInner) {
				t.Error("concurrent self-join diverged from serial result")
			}
		}(g)
	}
	wg.Wait()
}
