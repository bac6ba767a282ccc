package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/testutil"
)

// This file reproduces the paper's counter-example figures as executable
// tests: the plans the paper proves WRONG must actually produce different
// answers than the correct plans on configurations shaped like the paper's
// examples.

// TestInnerPushdownIsInvalid reproduces Figures 1 vs 2: pushing a kNN-select
// below the inner relation of a kNN-join changes the answer. The layout
// mirrors the paper's scenario: mechanic shops (outer) join hotels (inner),
// selected by proximity to a shopping center f.
func TestInnerPushdownIsInvalid(t *testing.T) {
	mechanics := []geom.Point{{X: 0, Y: 0}, {X: 0, Y: 10}, {X: 0, Y: 20}, {X: 0, Y: 30}}
	// Hotels: two right next to the mechanics, two near the shopping center.
	hotels := []geom.Point{{X: 1, Y: 0}, {X: 1, Y: 10}, {X: 100, Y: 0}, {X: 100, Y: 10}}
	shoppingCenter := geom.Point{X: 100, Y: 5}

	outer := testutil.BuildRelation(t, testutil.Grid, mechanics)
	inner := testutil.BuildRelation(t, testutil.Grid, hotels)
	kJoin, kSel := 2, 2

	correct := core.SelectInnerJoinConceptual(outer, inner, shoppingCenter, kJoin, kSel, nil)
	core.SortPairs(correct)

	wrong, err := core.InvalidInnerPushdown(outer, inner, shoppingCenter, kJoin, kSel,
		builder(testutil.Grid), nil)
	if err != nil {
		t.Fatal(err)
	}
	core.SortPairs(wrong)

	// The correct answer is empty: every mechanic's two nearest hotels are
	// the two local ones, which are not among the shopping center's two
	// nearest. The pushed-down plan pairs every mechanic with the two
	// far-away hotels instead.
	if len(correct) != 0 {
		t.Fatalf("correct plan: got %v, want empty", correct)
	}
	if len(wrong) != len(mechanics)*kJoin {
		t.Fatalf("invalid pushdown: got %d pairs, want %d", len(wrong), len(mechanics)*kJoin)
	}
	if pairsEqual(correct, wrong) {
		t.Fatalf("the invalid plan accidentally matched the correct plan")
	}
}

// TestInnerPushdownNonEquivalenceFormula checks the paper's Section 1
// formula on random data: (E1 ⋈kNN E2) ∩ (E1 × σ(E2)) ≠ E1 ⋈kNN σ(E2) in
// general — and when the two happen to coincide the test still verifies the
// correct side equals the conceptual evaluation.
func TestInnerPushdownNonEquivalenceFormula(t *testing.T) {
	sawDifference := false
	for seed := int64(0); seed < 8; seed++ {
		outerPts := testutil.UniformPoints(40, geom.NewRect(0, 0, 100, 100), 700+seed)
		innerPts := testutil.UniformPoints(60, geom.NewRect(0, 0, 100, 100), 800+seed)
		outer := testutil.BuildRelation(t, testutil.Grid, outerPts)
		inner := testutil.BuildRelation(t, testutil.Grid, innerPts)
		f := geom.Point{X: 50, Y: 50}

		correct := core.SelectInnerJoinConceptual(outer, inner, f, 3, 5, nil)
		core.SortPairs(correct)
		wrong, err := core.InvalidInnerPushdown(outer, inner, f, 3, 5, builder(testutil.Grid), nil)
		if err != nil {
			t.Fatal(err)
		}
		core.SortPairs(wrong)
		if !pairsEqual(correct, wrong) {
			sawDifference = true
		}
	}
	if !sawDifference {
		t.Fatalf("invalid pushdown never differed from the correct plan across seeds; the counter-example lost its teeth")
	}
}

// TestUnchainedSequentialIsWrong reproduces Figures 8–10: evaluating either
// unchained join first (feeding its B-projection to the other) differs from
// the correct independent-evaluation plan.
func TestUnchainedSequentialIsWrong(t *testing.T) {
	// Shaped like the paper's Figure 8/9 example: two a's on the left, two
	// c's on the right, three b's in the middle; b1 is close to the a's,
	// b3 close to the c's, b2 in between.
	aPts := []geom.Point{{X: 0, Y: 0}, {X: 0, Y: 10}}
	bPts := []geom.Point{{X: 10, Y: 0}, {X: 15, Y: 5}, {X: 20, Y: 10}}
	cPts := []geom.Point{{X: 30, Y: 0}, {X: 30, Y: 10}}

	a := testutil.BuildRelation(t, testutil.Grid, aPts)
	b := testutil.BuildRelation(t, testutil.Grid, bPts)
	c := testutil.BuildRelation(t, testutil.Grid, cPts)
	kAB, kCB := 2, 2

	correct := core.UnchainedConceptual(a, b, c, kAB, kCB, nil)
	core.SortTriples(correct)

	abFirst, err := core.SequentialUnchained(a, b, c, kAB, kCB, true, builder(testutil.Grid), nil)
	if err != nil {
		t.Fatal(err)
	}
	core.SortTriples(abFirst)
	cbFirst, err := core.SequentialUnchained(a, b, c, kAB, kCB, false, builder(testutil.Grid), nil)
	if err != nil {
		t.Fatal(err)
	}
	core.SortTriples(cbFirst)

	if triplesEqual(correct, abFirst) {
		t.Errorf("AB-first sequential plan unexpectedly matched the correct plan")
	}
	if triplesEqual(correct, cbFirst) {
		t.Errorf("CB-first sequential plan unexpectedly matched the correct plan")
	}
	if triplesEqual(abFirst, cbFirst) {
		t.Errorf("the two sequential plans unexpectedly agree (paper shows they differ)")
	}
}

// TestTwoSelectsSequentialIsWrong reproduces Figures 14–16: applying one
// kNN-select to the output of the other gives a different (wrong) answer
// than independent evaluation + intersection, and the two orders disagree
// with each other.
func TestTwoSelectsSequentialIsWrong(t *testing.T) {
	// Houses: two between work and school (the true answer), plus local
	// clusters near work and near school.
	houses := []geom.Point{
		{X: 50, Y: 50}, {X: 52, Y: 50}, // near both
		{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 0, Y: 2}, {X: 4, Y: 0}, // near work
		{X: 100, Y: 100}, {X: 98, Y: 100}, {X: 100, Y: 98}, {X: 96, Y: 100}, // near school
	}
	work := geom.Point{X: 0, Y: 1}
	school := geom.Point{X: 100, Y: 99}
	// k = 6 admits the four local houses plus both middle houses into each
	// neighborhood, so the correct intersection is the two middle houses.
	k := 6

	rel := testutil.BuildRelation(t, testutil.Grid, houses)

	correct := core.TwoSelectsConceptual(rel, work, k, school, k, nil)
	core.SortPoints(correct)
	if len(correct) == 0 {
		t.Fatalf("expected a non-empty correct answer; layout is miscalibrated")
	}

	workFirst := core.SequentialTwoSelects(rel, work, k, school, k, true, nil)
	core.SortPoints(workFirst)
	schoolFirst := core.SequentialTwoSelects(rel, work, k, school, k, false, nil)
	core.SortPoints(schoolFirst)

	if pointsEqual(correct, workFirst) {
		t.Errorf("work-first sequential plan unexpectedly matched the correct plan")
	}
	if pointsEqual(correct, schoolFirst) {
		t.Errorf("school-first sequential plan unexpectedly matched the correct plan")
	}
	if pointsEqual(workFirst, schoolFirst) {
		t.Errorf("the two sequential plans unexpectedly agree (paper shows they differ)")
	}
}

// TestRangeInnerPushdownIsInvalid extends the Figure 1/2 counter-example to
// the footnote-1 range-selection variant.
func TestRangeInnerPushdownIsInvalid(t *testing.T) {
	mechanics := []geom.Point{{X: 0, Y: 0}, {X: 0, Y: 10}}
	hotels := []geom.Point{{X: 1, Y: 0}, {X: 1, Y: 10}, {X: 100, Y: 0}, {X: 100, Y: 10}}
	rng := geom.NewRect(90, -5, 110, 15) // covers only the far hotels

	outer := testutil.BuildRelation(t, testutil.Grid, mechanics)
	inner := testutil.BuildRelation(t, testutil.Grid, hotels)
	kJoin := 2

	correct := rangeJoin(core.AlgorithmConceptual, outer, inner, rng, kJoin, nil)
	core.SortPairs(correct)
	wrong, err := core.InvalidRangeInnerPushdown(outer, inner, rng, kJoin, builder(testutil.Grid), nil)
	if err != nil {
		t.Fatal(err)
	}
	core.SortPairs(wrong)

	if len(correct) != 0 {
		t.Fatalf("correct plan: got %v, want empty", correct)
	}
	if len(wrong) == 0 || pairsEqual(correct, wrong) {
		t.Fatalf("range pushdown should have produced wrong, non-empty results; got %d pairs", len(wrong))
	}
}

func builder(kind testutil.IndexKind) func([]geom.Point) (*core.Relation, error) {
	return testutil.RelationBuilder(kind)
}

func triplesEqual(a, b []core.Triple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func pointsEqual(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
