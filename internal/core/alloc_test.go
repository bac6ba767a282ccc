package core_test

// Allocation-regression tests for the join hot path: KNNJoin performs one
// neighborhood computation per outer point, and after the zero-allocation
// Searcher rework the only remaining allocations are the result, allocated
// once at its final size, and the driver's fixed set-up — a small constant
// per join, not O(|outer|).

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/testutil"
)

func TestKNNJoinAllocsBounded(t *testing.T) {
	const k = 8
	bounds := geom.NewRect(0, 0, 1000, 1000)
	outer := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(2000, bounds, 51))
	inner := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(2000, bounds, 52))

	core.KNNJoin(outer, inner, k, nil) // warm the searcher scratch
	avg := testing.AllocsPerRun(5, func() {
		core.KNNJoin(outer, inner, k, nil)
	})
	// 2000 outer points produce 16000 pairs, allocated once at that size;
	// the rest is the driver's fixed set-up. Anything near the outer
	// cardinality means a per-tuple allocation crept back in.
	if avg > 10 {
		t.Errorf("KNNJoin allocates %v per join over 2000 outer points, want ≤ 10 (no per-tuple allocations)", avg)
	}
}

// TestKNNJoinSizedExactly checks that a sequential join's result is
// allocated at its exact size, |outer|·min(k, |inner|) pairs, however large:
// no regrowth by append, no spare capacity held past the answer.
func TestKNNJoinSizedExactly(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1000, 1000)
	outer := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(9000, bounds, 57))
	inner := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(500, bounds, 58))
	pairs := core.KNNJoin(outer, inner, 8, nil)
	if len(pairs) != 72000 || cap(pairs) != len(pairs) {
		t.Errorf("KNNJoin returned %d pairs in a capacity of %d, want 72000 in 72000", len(pairs), cap(pairs))
	}
}

// TestUnchainedAllocsBounded holds Unchained — Procedure 4 and the
// conceptual plan — to a constant number of allocations: two joins, the b
// index, one flat grouping and the rows, each allocated once, nothing per
// pair, per b or per row.
func TestUnchainedAllocsBounded(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1000, 1000)
	a := testutil.BuildRelation(t, testutil.Grid, testutil.ClusteredPoints(2000, 4, 20, bounds, 59))
	b := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(3000, bounds, 60))
	c := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(2000, bounds, 61))

	for _, prune := range []bool{true, false} {
		rows := len(core.Unchained(a, b, c, 2, 10, prune, core.OrderAuto, 1, nil)) // warm the searcher scratch
		avg := testing.AllocsPerRun(5, func() {
			core.Unchained(a, b, c, 2, 10, prune, core.OrderAuto, 1, nil)
		})
		// The map of b ids and the pruned second join's result grow in a
		// few steps; the rows number in the tens of thousands, and a
		// per-pair or per-b allocation would count in the thousands.
		t.Logf("prune %v: %d rows, %v allocs/op", prune, rows, avg)
		if avg > 64 {
			t.Errorf("Unchained (prune %v) allocates %v per query for %d rows, want ≤ 64 (rows allocated once, no per-b slices)", prune, avg, rows)
		}
	}
}

// TestSelectOuterJoinAllocsBounded holds the sequential outer join to the
// same bound: the selection, one pre-sized result slice and the driver's
// fixed set-up, nothing per selected tuple.
func TestSelectOuterJoinAllocsBounded(t *testing.T) {
	const kSel, kJoin = 10, 10
	bounds := geom.NewRect(0, 0, 1000, 1000)
	outer := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(2000, bounds, 55))
	inner := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(2000, bounds, 56))
	f := geom.Point{X: 500, Y: 500}

	core.SelectOuterJoin(outer, inner, f, kSel, kJoin, 1, nil) // warm the searcher scratch
	avg := testing.AllocsPerRun(20, func() {
		core.SelectOuterJoin(outer, inner, f, kSel, kJoin, 1, nil)
	})
	if avg > 10 {
		t.Errorf("SelectOuterJoin allocates %v per query, want ≤ 10 (result pre-sized, no per-tuple allocations)", avg)
	}
}

func TestKNNJoinParallelMatchesSequentialAllocsAreBounded(t *testing.T) {
	const k = 5
	bounds := geom.NewRect(0, 0, 1000, 1000)
	outer := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(1500, bounds, 53))
	inner := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(1500, bounds, 54))

	seq := core.KNNJoin(outer, inner, k, nil)
	par := core.KNNJoinParallel(outer, inner, k, 4, nil)
	if len(seq) != len(par) {
		t.Fatalf("parallel join cardinality %d != sequential %d", len(par), len(seq))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("parallel join diverges from sequential at row %d: %v != %v", i, par[i], seq[i])
		}
	}
}
