package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/testutil"
)

// TestKNNJoinParallelMatchesSequential checks the exported join wrappers
// agree — same pairs, same order — for various worker counts (0 selects
// GOMAXPROCS) and index kinds. Run with -race to validate the
// synchronization.
func TestKNNJoinParallelMatchesSequential(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1000, 1000)
	for _, kind := range testutil.AllIndexKinds {
		outer := testutil.BuildRelation(t, kind, testutil.UniformPoints(500, bounds, 1301))
		inner := testutil.BuildRelation(t, kind, testutil.UniformPoints(700, bounds, 1302))

		want := core.KNNJoin(outer, inner, 4, nil)
		for _, workers := range []int{0, 1, 2, 4, 16, 1000} {
			got := core.KNNJoinParallel(outer, inner, 4, workers, nil)
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d pairs, want %d", kind, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: pair %d = %v, want %v (order must match sequential)",
						kind, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestParallelVariantsMatchSequential sweeps the worker count over every
// algorithm's one body: whatever the crew size, the rows (order and
// nil-ness included) and the operation counters must equal the crew of
// one. The cached nested join keeps one neighborhood cache per worker, so
// its hit/miss split — and the neighborhood work behind each miss — varies
// with the crew; there the cache-independent sums must hold. Run with -race
// to validate the synchronization.
func TestParallelVariantsMatchSequential(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1000, 1000)
	a := testutil.BuildRelation(t, testutil.Grid, testutil.ClusteredPoints(500, 5, 40, bounds, 1401))
	b := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(600, bounds, 1402))
	cRel := testutil.BuildRelation(t, testutil.Grid, testutil.ClusteredPoints(400, 4, 50, bounds, 1403))
	f := geom.Point{X: 400, Y: 600}
	rng := geom.NewRect(300, 300, 700, 700)
	nowhere := geom.NewRect(5000, 5000, 5010, 5010)
	const kJoin, kSel = 4, 12

	type entry struct {
		name string
		run  func(workers int, c *stats.Counters) any
	}
	selectInner := func(name string, alg core.Algorithm) entry {
		return entry{name, func(w int, c *stats.Counters) any {
			return core.SelectInnerJoin(a, b, core.KNNSelection(b, f, kSel, c), kJoin, alg, core.BlockMarkingOptions{}, w, c)
		}}
	}
	rangeInner := func(name string, alg core.Algorithm, q geom.Rect) entry {
		return entry{name, func(w int, c *stats.Counters) any {
			return core.SelectInnerJoin(a, b, core.RangeSelection(q), kJoin, alg, core.BlockMarkingOptions{}, w, c)
		}}
	}
	cases := []entry{
		{"KNNJoin", func(w int, c *stats.Counters) any { return core.KNNJoinParallel(a, b, kJoin, w, c) }},
		selectInner("SelectInnerJoinConceptual", core.AlgorithmConceptual),
		selectInner("SelectInnerJoinCounting", core.AlgorithmCounting),
		selectInner("SelectInnerJoinBlockMarking", core.AlgorithmBlockMarking),
		{"SelectOuterJoin", func(w int, c *stats.Counters) any { return core.SelectOuterJoin(a, b, f, kSel, kJoin, w, c) }},
		rangeInner("RangeInnerJoinConceptual", core.AlgorithmConceptual, rng),
		rangeInner("RangeInnerJoinCounting", core.AlgorithmCounting, rng),
		rangeInner("RangeInnerJoinBlockMarking", core.AlgorithmBlockMarking, rng),
		// Nothing selected: Conceptual filters a non-nil join down to an
		// empty slice, the pruning algorithms emit nothing at all (nil).
		rangeInner("EmptyRangeInnerJoinConceptual", core.AlgorithmConceptual, nowhere),
		rangeInner("EmptyRangeInnerJoinCounting", core.AlgorithmCounting, nowhere),
		rangeInner("EmptyRangeInnerJoinBlockMarking", core.AlgorithmBlockMarking, nowhere),
		{"UnchainedConceptual", func(w int, c *stats.Counters) any {
			return core.Unchained(a, b, cRel, kJoin, kJoin, false, core.OrderAuto, w, c)
		}},
		{"UnchainedBlockMarking", func(w int, c *stats.Counters) any {
			return core.Unchained(a, b, cRel, kJoin, kJoin, true, core.OrderAuto, w, c)
		}},
	}
	for _, qep := range []core.ChainedQEP{core.ChainedRightDeep, core.ChainedJoinIntersection,
		core.ChainedNestedJoin, core.ChainedNestedJoinCached} {
		qep := qep
		cases = append(cases, entry{"ChainedJoins/" + qep.String(), func(w int, c *stats.Counters) any {
			return core.Chained(a, b, cRel, kJoin, kJoin, qep, w, c)
		}})
	}

	// Per-worker caches move probes between hits and misses; their sum, and
	// the neighborhoods computed outside the cache (one per A tuple), do not
	// move.
	cacheInvariant := func(c *stats.Counters) stats.Counters {
		if c.CacheHits+c.CacheMisses == 0 {
			return c.Snapshot()
		}
		return stats.Counters{Neighborhoods: c.Neighborhoods - c.CacheMisses, CacheHits: c.CacheHits + c.CacheMisses}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var wantC stats.Counters
			want := tc.run(1, &wantC)
			for _, workers := range []int{2, 4, 16, 1000} {
				var gotC stats.Counters
				if got := tc.run(workers, &gotC); !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: result diverges from workers=1", workers)
				}
				if g, w := cacheInvariant(&gotC), cacheInvariant(&wantC); g != w {
					t.Fatalf("workers=%d: counters %+v, want %+v", workers, g, w)
				}
			}
		})
	}
}

// TestKNNJoinParallelDegenerate pins the degenerate-k contracts at every
// crew size: k ≤ 0 yields no pairs, an oversized k the whole inner relation
// per outer point.
func TestKNNJoinParallelDegenerate(t *testing.T) {
	bounds := geom.NewRect(0, 0, 10, 10)
	outer := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(5, bounds, 1321))
	inner := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(5, bounds, 1322))

	for _, workers := range []int{1, 4} {
		if got := core.KNNJoinParallel(outer, inner, 0, workers, nil); len(got) != 0 {
			t.Errorf("workers=%d: k=0 must return no pairs", workers)
		}
		if got := core.KNNJoinParallel(outer, inner, 10, workers, nil); len(got) != 25 {
			t.Errorf("workers=%d: oversized k: %d pairs, want 25", workers, len(got))
		}
	}
}
