package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/testutil"
)

var unBounds = geom.NewRect(0, 0, 1000, 1000)

// TestUnchainedEquivalence checks Section 4.1: Block-Marking — in every join
// order — returns exactly the triples of the conceptually correct
// independent-evaluation plan.
func TestUnchainedEquivalence(t *testing.T) {
	layouts := map[string]struct{ a, b, c []geom.Point }{
		"uniform": {
			a: testutil.UniformPoints(150, unBounds, 901),
			b: testutil.UniformPoints(300, unBounds, 902),
			c: testutil.UniformPoints(150, unBounds, 903),
		},
		"a-clustered": {
			a: testutil.ClusteredPoints(150, 2, 15, unBounds, 904),
			b: testutil.UniformPoints(300, unBounds, 905),
			c: testutil.UniformPoints(150, unBounds, 906),
		},
		"both-clustered": {
			a: testutil.ClusteredPoints(150, 4, 15, unBounds, 907),
			b: testutil.UniformPoints(300, unBounds, 908),
			c: testutil.ClusteredPoints(150, 2, 15, unBounds, 909),
		},
	}
	orders := []core.JoinOrder{core.OrderAuto, core.OrderABFirst, core.OrderCBFirst}
	for name, layout := range layouts {
		for _, kind := range testutil.AllIndexKinds {
			a := testutil.BuildRelation(t, kind, layout.a)
			b := testutil.BuildRelation(t, kind, layout.b)
			c := testutil.BuildRelation(t, kind, layout.c)
			for _, ks := range []struct{ kAB, kCB int }{{1, 1}, {3, 3}, {2, 7}} {
				want := core.UnchainedConceptual(a, b, c, ks.kAB, ks.kCB, nil)
				core.SortTriples(want)
				for _, order := range orders {
					got := core.UnchainedBlockMarking(a, b, c, ks.kAB, ks.kCB, order, nil)
					core.SortTriples(got)
					if !triplesEqual(got, want) {
						t.Fatalf("%s/%s kAB=%d kCB=%d order=%v: Block-Marking differs from conceptual (%d vs %d triples)",
							name, kind, ks.kAB, ks.kCB, order, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestUnchainedOrderIndependence checks the Figure 10 property: because the
// two joins are evaluated independently, the conceptual plan gives the same
// result regardless of which join is computed first. (The conceptual
// evaluator has no order knob; we emulate order by swapping arguments and
// remapping the triple fields, which must be a bijection on results.)
func TestUnchainedOrderIndependence(t *testing.T) {
	a := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(80, unBounds, 911))
	b := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(120, unBounds, 912))
	c := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(80, unBounds, 913))
	kAB, kCB := 3, 4

	fwd := core.UnchainedConceptual(a, b, c, kAB, kCB, nil)
	core.SortTriples(fwd)

	// Swap the roles of A and C (and the k values accordingly): the result
	// triples must be the same up to the A<->C field swap.
	rev := core.UnchainedConceptual(c, b, a, kCB, kAB, nil)
	for i := range rev {
		rev[i].A, rev[i].C = rev[i].C, rev[i].A
	}
	core.SortTriples(rev)

	if !triplesEqual(fwd, rev) {
		t.Fatalf("conceptual unchained plan is order-dependent: %d vs %d triples", len(fwd), len(rev))
	}
}

// TestUnchainedPruningSoundness verifies the pruning rule directly: every
// point of a pruned (Non-Contributing) block of the second join's outer
// relation must be absent from the conceptual answer's C column.
func TestUnchainedPruningSoundness(t *testing.T) {
	// A tightly clustered in a corner; C spread widely, so many C blocks
	// are far from every b the first join produces.
	aPts := testutil.ClusteredPoints(200, 1, 10, geom.NewRect(0, 0, 80, 80), 921)
	bPts := testutil.UniformPoints(400, unBounds, 922)
	cPts := testutil.UniformPoints(300, unBounds, 923)

	a := testutil.BuildRelation(t, testutil.Grid, aPts)
	b := testutil.BuildRelation(t, testutil.Grid, bPts)
	c := testutil.BuildRelation(t, testutil.Grid, cPts)
	kAB, kCB := 3, 3

	var ctr stats.Counters
	got := core.UnchainedBlockMarking(a, b, c, kAB, kCB, core.OrderABFirst, &ctr)
	core.SortTriples(got)
	want := core.UnchainedConceptual(a, b, c, kAB, kCB, nil)
	core.SortTriples(want)

	if !triplesEqual(got, want) {
		t.Fatalf("Block-Marking differs from conceptual (%d vs %d)", len(got), len(want))
	}
	if ctr.BlocksPruned == 0 {
		t.Errorf("expected pruned blocks on this layout; counters: %v", &ctr)
	}
}

// TestJoinOrderHeuristic checks the Section 4.1.2 guidance: with a clustered
// A and uniform C, OrderAuto must pick the clustered relation's join first
// (observable through the coverage estimates).
func TestJoinOrderHeuristic(t *testing.T) {
	clustered := testutil.BuildRelation(t, testutil.Grid,
		testutil.ClusteredPoints(400, 1, 10, geom.NewRect(0, 0, 60, 60), 931))
	uniform := testutil.BuildRelation(t, testutil.Grid,
		testutil.UniformPoints(400, unBounds, 932))

	covClustered := core.EstimateClusterCoverage(clustered)
	covUniform := core.EstimateClusterCoverage(uniform)
	if covClustered >= covUniform {
		t.Fatalf("coverage(clustered)=%v must be below coverage(uniform)=%v", covClustered, covUniform)
	}
}

func TestEstimateClusterCoverageBounds(t *testing.T) {
	rel := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(500, unBounds, 941))
	cov := core.EstimateClusterCoverage(rel)
	if cov <= 0 || cov > 1 {
		t.Fatalf("coverage = %v, want (0, 1]", cov)
	}
}

// TestUnchainedRandomSweep drives the equivalence across random parameters
// as a lightweight property test.
func TestUnchainedRandomSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(951))
	for trial := 0; trial < 6; trial++ {
		na, nb, nc := 30+rng.Intn(80), 50+rng.Intn(120), 30+rng.Intn(80)
		kAB, kCB := 1+rng.Intn(5), 1+rng.Intn(5)
		a := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(na, unBounds, rng.Int63()))
		b := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(nb, unBounds, rng.Int63()))
		c := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(nc, unBounds, rng.Int63()))

		want := core.UnchainedConceptual(a, b, c, kAB, kCB, nil)
		core.SortTriples(want)
		got := core.UnchainedBlockMarking(a, b, c, kAB, kCB, core.OrderAuto, nil)
		core.SortTriples(got)
		if !triplesEqual(got, want) {
			t.Fatalf("trial %d (na=%d nb=%d nc=%d kAB=%d kCB=%d): mismatch %d vs %d",
				trial, na, nb, nc, kAB, kCB, len(got), len(want))
		}
	}
}

// TestUnchainedPlansRowExact runs every Unchained plan — either join first,
// pruning on and off, sequential and fanned out — against the sequential
// conceptual plan, row for row and in order: pruned blocks, skipped tuples
// and the pairs the second join drops (their b is no b of the first join)
// can only remove rows that no intersection emits. Every relation holds co-located
// duplicates.
func TestUnchainedPlansRowExact(t *testing.T) {
	withDups := func(pts []geom.Point) []geom.Point {
		return append(pts, pts[:len(pts)/3]...)
	}
	a := testutil.BuildRelation(t, testutil.Grid, withDups(testutil.ClusteredPoints(150, 2, 15, unBounds, 961)))
	b := testutil.BuildRelation(t, testutil.Grid, withDups(testutil.UniformPoints(300, unBounds, 962)))
	c := testutil.BuildRelation(t, testutil.Grid, withDups(testutil.UniformPoints(200, unBounds, 963)))
	for _, ks := range []struct{ kAB, kCB int }{{1, 1}, {2, 5}, {4, 3}} {
		want := core.UnchainedConceptual(a, b, c, ks.kAB, ks.kCB, nil)
		if len(want) == 0 {
			t.Fatalf("kAB=%d kCB=%d: the conceptual plan returned no rows", ks.kAB, ks.kCB)
		}
		for _, order := range []core.JoinOrder{core.OrderABFirst, core.OrderCBFirst} {
			for _, prune := range []bool{true, false} {
				for _, workers := range []int{1, 4} {
					got := core.Unchained(a, b, c, ks.kAB, ks.kCB, prune, order, workers, nil)
					if !triplesEqual(got, want) {
						t.Fatalf("kAB=%d kCB=%d %v prune=%v workers=%d: rows differ from the conceptual plan (%d vs %d)",
							ks.kAB, ks.kCB, order, prune, workers, len(got), len(want))
					}
				}
			}
		}
	}
}
