package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/testutil"
)

var sjBounds = geom.NewRect(0, 0, 1000, 1000)

func sjLayouts(seed int64) map[string]struct{ outer, inner []geom.Point } {
	return map[string]struct{ outer, inner []geom.Point }{
		"uniform": {
			outer: testutil.UniformPoints(400, sjBounds, seed),
			inner: testutil.UniformPoints(600, sjBounds, seed+1),
		},
		"clustered-outer": {
			outer: testutil.ClusteredPoints(400, 5, 15, sjBounds, seed+2),
			inner: testutil.UniformPoints(600, sjBounds, seed+3),
		},
		"clustered-both": {
			outer: testutil.ClusteredPoints(400, 4, 25, sjBounds, seed+4),
			inner: testutil.ClusteredPoints(600, 6, 25, sjBounds, seed+5),
		},
		"tiny": {
			outer: testutil.UniformPoints(12, sjBounds, seed+6),
			inner: testutil.UniformPoints(9, sjBounds, seed+7),
		},
	}
}

// TestSelectInnerJoinEquivalence is the central correctness property of
// Section 3: Counting and Block-Marking (contour and exhaustive) must return
// exactly the conceptual plan's pairs, on every layout and index kind.
func TestSelectInnerJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for name, layout := range sjLayouts(200) {
		for _, kind := range testutil.AllIndexKinds {
			outer := testutil.BuildRelation(t, kind, layout.outer)
			inner := testutil.BuildRelation(t, kind, layout.inner)
			for _, ks := range []struct{ kJoin, kSel int }{{1, 1}, {2, 2}, {5, 10}, {10, 3}, {16, 40}} {
				f := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}

				want := core.SelectInnerJoinConceptual(outer, inner, f, ks.kJoin, ks.kSel, nil)
				core.SortPairs(want)

				counting := core.SelectInnerJoinCounting(outer, inner, f, ks.kJoin, ks.kSel, nil)
				core.SortPairs(counting)
				if !pairsEqual(counting, want) {
					t.Fatalf("%s/%s k⋈=%d kσ=%d f=%v: Counting differs from conceptual\n got %d pairs\nwant %d pairs",
						name, kind, ks.kJoin, ks.kSel, f, len(counting), len(want))
				}

				for _, exhaustive := range []bool{false, true} {
					bm := core.SelectInnerJoinBlockMarking(outer, inner, f, ks.kJoin, ks.kSel,
						core.BlockMarkingOptions{Exhaustive: exhaustive}, nil)
					core.SortPairs(bm)
					if !pairsEqual(bm, want) {
						t.Fatalf("%s/%s k⋈=%d kσ=%d f=%v exhaustive=%v: Block-Marking differs from conceptual\n got %d pairs\nwant %d pairs",
							name, kind, ks.kJoin, ks.kSel, f, exhaustive, len(bm), len(want))
					}
				}
			}
		}
	}
}

// pairsEqual compares canonical (sorted) pair slices, treating nil and empty
// as equal.
func pairsEqual(a, b []core.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// TestSelectInnerJoinAgainstBruteForce validates the conceptual plan itself
// against a from-first-principles evaluation of the query semantics.
func TestSelectInnerJoinAgainstBruteForce(t *testing.T) {
	outerPts := testutil.UniformPoints(60, sjBounds, 301)
	innerPts := testutil.UniformPoints(80, sjBounds, 302)
	outer := testutil.BuildRelation(t, testutil.Grid, outerPts)
	inner := testutil.BuildRelation(t, testutil.Grid, innerPts)
	f := geom.Point{X: 500, Y: 500}
	kJoin, kSel := 4, 7

	got := core.SelectInnerJoinConceptual(outer, inner, f, kJoin, kSel, nil)
	core.SortPairs(got)

	// First principles: e2 must be in kNN(e1) AND kNN(f).
	nbrF := bruteKNN(innerPts, f, kSel)
	var want []core.Pair
	for _, e1 := range outerPts {
		for _, e2 := range bruteKNN(innerPts, e1, kJoin) {
			if containsPoint(nbrF, e2) {
				want = append(want, core.Pair{Left: e1, Right: e2})
			}
		}
	}
	core.SortPairs(want)
	if !pairsEqual(got, want) {
		t.Fatalf("conceptual plan disagrees with first-principles evaluation: got %d, want %d pairs", len(got), len(want))
	}
}

func bruteKNN(pts []geom.Point, q geom.Point, k int) []geom.Point {
	out := make([]geom.Point, len(pts))
	copy(out, pts)
	for i := 0; i < len(out) && i < k; i++ {
		best := i
		for j := i + 1; j < len(out); j++ {
			if out[j].CloserTo(q, out[best]) {
				best = j
			}
		}
		out[i], out[best] = out[best], out[i]
	}
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func containsPoint(pts []geom.Point, p geom.Point) bool {
	for _, q := range pts {
		if q == p {
			return true
		}
	}
	return false
}

// TestOuterPushdownIsValid reproduces Figure 3: selecting on the outer
// relation before or after the join yields identical results.
func TestOuterPushdownIsValid(t *testing.T) {
	outerPts := testutil.UniformPoints(150, sjBounds, 401)
	innerPts := testutil.UniformPoints(200, sjBounds, 402)
	outer := testutil.BuildRelation(t, testutil.Grid, outerPts)
	inner := testutil.BuildRelation(t, testutil.Grid, innerPts)
	f := geom.Point{X: 300, Y: 700}
	kSel, kJoin := 12, 3

	// Pushed: select then join (what SelectOuterJoin does).
	pushed := core.SelectOuterJoin(outer, inner, f, kSel, kJoin, 1, nil)
	core.SortPairs(pushed)

	// Late: full join, then keep pairs whose Left survives the select.
	sel := make(map[geom.Point]struct{})
	for _, p := range core.KNNSelect(outer, f, kSel, nil) {
		sel[p] = struct{}{}
	}
	var late []core.Pair
	for _, pr := range core.KNNJoin(outer, inner, kJoin, nil) {
		if _, ok := sel[pr.Left]; ok {
			late = append(late, pr)
		}
	}
	core.SortPairs(late)

	if !pairsEqual(pushed, late) {
		t.Fatalf("outer pushdown changed the answer: pushed %d pairs, late %d pairs", len(pushed), len(late))
	}
}

// TestCountingPrunesAndBlockMarkingPrunes checks the instrumentation: on a
// dense outer relation far from the focal point, both optimized algorithms
// must actually skip work.
func TestCountingPrunesAndBlockMarkingPrunes(t *testing.T) {
	// Outer cluster far from f; inner points both near f and near the
	// cluster, so neighborhoods around the cluster never reach nbr(f).
	outerPts := testutil.ClusteredPoints(500, 1, 10, geom.NewRect(800, 800, 900, 900), 501)
	innerNear := testutil.ClusteredPoints(300, 1, 10, geom.NewRect(800, 800, 900, 900), 502)
	innerAtF := testutil.ClusteredPoints(50, 1, 5, geom.NewRect(0, 0, 50, 50), 503)
	innerPts := append(append([]geom.Point{}, innerNear...), innerAtF...)

	outer := testutil.BuildRelation(t, testutil.Grid, outerPts)
	inner := testutil.BuildRelation(t, testutil.Grid, innerPts)
	f := geom.Point{X: 10, Y: 10}

	var cc stats.Counters
	res := core.SelectInnerJoinCounting(outer, inner, f, 5, 5, &cc)
	if len(res) != 0 {
		t.Fatalf("expected empty result, got %d pairs", len(res))
	}
	if cc.OuterSkipped == 0 {
		t.Errorf("Counting skipped no outer points; counters: %v", &cc)
	}

	var bc stats.Counters
	res = core.SelectInnerJoinBlockMarking(outer, inner, f, 5, 5, core.BlockMarkingOptions{}, &bc)
	if len(res) != 0 {
		t.Fatalf("expected empty result, got %d pairs", len(res))
	}
	if bc.BlocksPruned == 0 {
		t.Errorf("Block-Marking pruned no blocks; counters: %v", &bc)
	}
}

func TestSelectInnerJoinDegenerate(t *testing.T) {
	outer := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(20, sjBounds, 601))
	inner := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(20, sjBounds, 602))
	f := geom.Point{X: 1, Y: 1}

	for _, fn := range []func() []core.Pair{
		func() []core.Pair { return core.SelectInnerJoinCounting(outer, inner, f, 0, 5, nil) },
		func() []core.Pair { return core.SelectInnerJoinCounting(outer, inner, f, 5, 0, nil) },
		func() []core.Pair {
			return core.SelectInnerJoinBlockMarking(outer, inner, f, 0, 5, core.BlockMarkingOptions{}, nil)
		},
		func() []core.Pair {
			return core.SelectInnerJoinBlockMarking(outer, inner, f, -1, -1, core.BlockMarkingOptions{}, nil)
		},
	} {
		if got := fn(); len(got) != 0 {
			t.Errorf("degenerate k must yield empty result, got %d pairs", len(got))
		}
	}

	// k values exceeding both cardinalities: every (e1, e2) pair qualifies.
	want := core.SelectInnerJoinConceptual(outer, inner, f, 50, 50, nil)
	core.SortPairs(want)
	got := core.SelectInnerJoinCounting(outer, inner, f, 50, 50, nil)
	core.SortPairs(got)
	if !pairsEqual(got, want) {
		t.Errorf("oversized k: Counting differs from conceptual")
	}
	if len(want) != 20*20 {
		t.Errorf("oversized k must produce the full cross product, got %d", len(want))
	}
}
