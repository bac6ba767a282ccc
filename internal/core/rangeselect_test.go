package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/testutil"
)

var rsBounds = geom.NewRect(0, 0, 1000, 1000)

// rangeJoin is the sequential range-selection inner join under one
// algorithm.
func rangeJoin(alg core.Algorithm, outer, inner *core.Relation, q geom.Rect, kJoin int, c *stats.Counters) []core.Pair {
	return core.SelectInnerJoin(outer, inner, core.RangeSelection(q), kJoin, alg, core.BlockMarkingOptions{}, 1, c)
}

// TestRangeInnerJoinEquivalence checks the footnote-1 extension: the
// Counting and Block-Marking adaptations for a range selection on the inner
// relation return exactly the conceptual plan's pairs.
func TestRangeInnerJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1201))
	layouts := map[string]struct{ outer, inner []geom.Point }{
		"uniform": {
			outer: testutil.UniformPoints(300, rsBounds, 1202),
			inner: testutil.UniformPoints(400, rsBounds, 1203),
		},
		"clustered-outer": {
			outer: testutil.ClusteredPoints(300, 3, 20, rsBounds, 1204),
			inner: testutil.UniformPoints(400, rsBounds, 1205),
		},
	}
	for name, layout := range layouts {
		for _, kind := range testutil.AllIndexKinds {
			outer := testutil.BuildRelation(t, kind, layout.outer)
			inner := testutil.BuildRelation(t, kind, layout.inner)
			for trial := 0; trial < 5; trial++ {
				cx, cy := rng.Float64()*1000, rng.Float64()*1000
				w, h := 20+rng.Float64()*200, 20+rng.Float64()*200
				q := geom.NewRect(cx-w/2, cy-h/2, cx+w/2, cy+h/2)
				kJoin := 1 + rng.Intn(8)

				want := rangeJoin(core.AlgorithmConceptual, outer, inner, q, kJoin, nil)
				core.SortPairs(want)

				counting := rangeJoin(core.AlgorithmCounting, outer, inner, q, kJoin, nil)
				core.SortPairs(counting)
				if !pairsEqual(counting, want) {
					t.Fatalf("%s/%s rect=%v k=%d: range Counting differs (%d vs %d)",
						name, kind, q, kJoin, len(counting), len(want))
				}

				for _, exhaustive := range []bool{false, true} {
					bm := core.SelectInnerJoin(outer, inner, core.RangeSelection(q), kJoin, core.AlgorithmBlockMarking,
						core.BlockMarkingOptions{Exhaustive: exhaustive}, 1, nil)
					core.SortPairs(bm)
					if !pairsEqual(bm, want) {
						t.Fatalf("%s/%s rect=%v k=%d exhaustive=%v: range Block-Marking differs (%d vs %d)",
							name, kind, q, kJoin, exhaustive, len(bm), len(want))
					}
				}
			}
		}
	}
}

// TestRangeInnerJoinPrunes verifies that the adapted pruning fires: a dense
// outer cluster far from the rectangle must be skipped.
func TestRangeInnerJoinPrunes(t *testing.T) {
	outerPts := testutil.ClusteredPoints(400, 1, 10, geom.NewRect(850, 850, 950, 950), 1211)
	innerPts := append(
		testutil.ClusteredPoints(200, 1, 10, geom.NewRect(850, 850, 950, 950), 1212),
		testutil.UniformPoints(100, geom.NewRect(0, 0, 100, 100), 1213)...)
	outer := testutil.BuildRelation(t, testutil.Grid, outerPts)
	inner := testutil.BuildRelation(t, testutil.Grid, innerPts)
	q := geom.NewRect(0, 0, 80, 80)

	var cc stats.Counters
	res := rangeJoin(core.AlgorithmCounting, outer, inner, q, 5, &cc)
	if len(res) != 0 {
		t.Fatalf("expected empty result, got %d pairs", len(res))
	}
	if cc.OuterSkipped == 0 {
		t.Errorf("range Counting skipped nothing; counters: %v", &cc)
	}

	var bc stats.Counters
	res = rangeJoin(core.AlgorithmBlockMarking, outer, inner, q, 5, &bc)
	if len(res) != 0 {
		t.Fatalf("expected empty result, got %d pairs", len(res))
	}
	if bc.BlocksPruned == 0 {
		t.Errorf("range Block-Marking pruned nothing; counters: %v", &bc)
	}
}

func TestRangeInnerJoinDegenerate(t *testing.T) {
	outer := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(20, rsBounds, 1221))
	inner := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(20, rsBounds, 1222))

	if got := rangeJoin(core.AlgorithmCounting, outer, inner, geom.NewRect(0, 0, 10, 10), 0, nil); len(got) != 0 {
		t.Errorf("k=0 must give empty result")
	}

	// Rectangle covering everything: equivalent to the raw join.
	all := geom.NewRect(-10, -10, 1100, 1100)
	want := core.KNNJoin(outer, inner, 3, nil)
	core.SortPairs(want)
	got := rangeJoin(core.AlgorithmCounting, outer, inner, all, 3, nil)
	core.SortPairs(got)
	if !pairsEqual(got, want) {
		t.Errorf("all-covering rectangle: got %d pairs, want the raw join's %d", len(got), len(want))
	}

	// Rectangle covering nothing: empty.
	none := geom.NewRect(5000, 5000, 5010, 5010)
	if got := rangeJoin(core.AlgorithmBlockMarking, outer, inner, none, 3, nil); len(got) != 0 {
		t.Errorf("empty rectangle: got %d pairs, want 0", len(got))
	}
}
