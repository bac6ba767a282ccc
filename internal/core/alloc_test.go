package core_test

// Allocation-regression tests for the join hot path: KNNJoin performs one
// neighborhood computation per outer point, and after the zero-allocation
// Searcher rework the only remaining allocations are the result slice's
// geometric growth — a small constant per join, not O(|outer|).

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
	// 2000 outer points produce 16000 pairs; the result slice needs a
	// handful of allocations to grow there. Anything near the outer
	// cardinality means a per-tuple allocation crept back in.
	if avg > 10 {
		t.Errorf("KNNJoin allocates %v per join over 2000 outer points, want ≤ 10 (no per-tuple allocations)", avg)
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
