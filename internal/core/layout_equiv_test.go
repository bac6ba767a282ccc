package core_test

// Cross-layout equivalence: the span-backed columnar engine must return
// byte-identical results to a reference AoS shadow evaluation — plain
// []geom.Point slices walked with NaiveKNN — for all five query shapes
// (select-inner-join, select-outer-join, unchained, chained, two-selects)
// plus the footnote-1 range extension, on every index family. This is the
// regression gate for the SoA PointStore refactor: any divergence in
// permutation, span bookkeeping or scan tie-breaking shows up as a result
// difference here.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/locality"
	"repro/internal/testutil"
)

// refKNN returns the k nearest neighbors of q among pts under the canonical
// (distance, X, Y) order, computed on the AoS slice with the naive sorter.
func refKNN(pts []geom.Point, q geom.Point, k int) []geom.Point {
	return locality.NaiveKNN(pts, q, k).Points
}

// refKNNJoin evaluates outer ⋈kNN inner over raw point slices.
func refKNNJoin(outer, inner []geom.Point, k int) []core.Pair {
	var out []core.Pair
	for _, e1 := range outer {
		for _, e2 := range refKNN(inner, e1, k) {
			out = append(out, core.Pair{Left: e1, Right: e2})
		}
	}
	return out
}

// refIntersectRight keeps pairs whose Right is in sel.
func refIntersectRight(pairs []core.Pair, sel []geom.Point) []core.Pair {
	inSel := make(map[geom.Point]bool, len(sel))
	for _, p := range sel {
		inSel[p] = true
	}
	var out []core.Pair
	for _, pr := range pairs {
		if inSel[pr.Right] {
			out = append(out, pr)
		}
	}
	return out
}

// refIntersectOnB matches (a, b) with (c, b) pairs on the shared b.
func refIntersectOnB(abPairs, cbPairs []core.Pair) []core.Triple {
	cByB := make(map[geom.Point][]geom.Point)
	for _, pr := range cbPairs {
		cByB[pr.Right] = append(cByB[pr.Right], pr.Left)
	}
	var out []core.Triple
	for _, pr := range abPairs {
		for _, cpt := range cByB[pr.Right] {
			out = append(out, core.Triple{A: pr.Left, B: pr.Right, C: cpt})
		}
	}
	return out
}

func sortedPairs(ps []core.Pair) []core.Pair {
	out := append([]core.Pair(nil), ps...)
	core.SortPairs(out)
	return out
}

func sortedTriples(ts []core.Triple) []core.Triple {
	out := append([]core.Triple(nil), ts...)
	core.SortTriples(out)
	return out
}

func sortedPoints(ps []geom.Point) []geom.Point {
	out := append([]geom.Point(nil), ps...)
	core.SortPoints(out)
	return out
}

func equivPoints(n int, bounds geom.Rect, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: bounds.MinX + rng.Float64()*bounds.Width(),
			Y: bounds.MinY + rng.Float64()*bounds.Height(),
		}
	}
	return pts
}

// TestLayoutEquivalenceAllShapes runs every query shape on every index
// family across several random datasets and checks the engine's results
// against the AoS reference, canonically sorted on both sides.
func TestLayoutEquivalenceAllShapes(t *testing.T) {
	bounds := geom.NewRect(0, 0, 400, 400)
	for _, kind := range testutil.AllIndexKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				aPts := equivPoints(90, bounds, 1000+seed)
				bPts := equivPoints(140, bounds, 2000+seed)
				cPts := equivPoints(70, bounds, 3000+seed)
				a := testutil.BuildRelation(t, kind, aPts)
				b := testutil.BuildRelation(t, kind, bPts)
				cRel := testutil.BuildRelation(t, kind, cPts)
				f := geom.Point{X: 200, Y: 150}
				f2 := geom.Point{X: 120, Y: 300}
				rng := geom.NewRect(100, 100, 260, 240)
				kJoin, kSel := 4, 7

				// Shape 1: kNN-select on the inner relation of a kNN-join.
				wantSIJ := sortedPairs(refIntersectRight(
					refKNNJoin(aPts, bPts, kJoin), refKNN(bPts, f, kSel)))
				for name, got := range map[string][]core.Pair{
					"conceptual":    core.SelectInnerJoinConceptual(a, b, f, kJoin, kSel, nil),
					"counting":      core.SelectInnerJoinCounting(a, b, f, kJoin, kSel, nil),
					"block-marking": core.SelectInnerJoinBlockMarking(a, b, f, kJoin, kSel, core.BlockMarkingOptions{}, nil),
				} {
					if diff := sortedPairs(got); !reflect.DeepEqual(diff, wantSIJ) {
						t.Fatalf("%s/seed %d: select-inner-join %s diverged from AoS reference:\ngot  %v\nwant %v",
							kind, seed, name, diff, wantSIJ)
					}
				}

				// Shape 2: kNN-select on the outer relation.
				wantSOJ := sortedPairs(refKNNJoin(refKNN(aPts, f, kSel), bPts, kJoin))
				if got := sortedPairs(core.SelectOuterJoin(a, b, f, kSel, kJoin, 1, nil)); !reflect.DeepEqual(got, wantSOJ) {
					t.Fatalf("%s/seed %d: select-outer-join diverged from AoS reference", kind, seed)
				}

				// Shape 3: two unchained joins sharing B.
				wantUnchained := sortedTriples(refIntersectOnB(
					refKNNJoin(aPts, bPts, kJoin), refKNNJoin(cPts, bPts, kJoin)))
				for name, got := range map[string][]core.Triple{
					"conceptual":    core.UnchainedConceptual(a, b, cRel, kJoin, kJoin, nil),
					"block-marking": core.UnchainedBlockMarking(a, b, cRel, kJoin, kJoin, core.OrderAuto, nil),
				} {
					if diff := sortedTriples(got); !reflect.DeepEqual(diff, wantUnchained) {
						t.Fatalf("%s/seed %d: unchained %s diverged from AoS reference", kind, seed, name)
					}
				}

				// Shape 4: two chained joins A→B→C.
				var wantChained []core.Triple
				for _, ap := range aPts {
					for _, bp := range refKNN(bPts, ap, kJoin) {
						for _, cp := range refKNN(cPts, bp, kJoin) {
							wantChained = append(wantChained, core.Triple{A: ap, B: bp, C: cp})
						}
					}
				}
				wantChainedS := sortedTriples(wantChained)
				for _, qep := range []core.ChainedQEP{core.ChainedRightDeep, core.ChainedNestedJoinCached} {
					got := sortedTriples(core.ChainedJoins(a, b, cRel, kJoin, kJoin, qep, nil))
					if !reflect.DeepEqual(got, wantChainedS) {
						t.Fatalf("%s/seed %d: chained %v diverged from AoS reference", kind, seed, qep)
					}
				}

				// Shape 5: two kNN-selects over one relation.
				sel1 := refKNN(bPts, f, kSel)
				wantTwoSel := sortedPoints(refIntersectPoints(sel1, refKNN(bPts, f2, kSel+3)))
				for name, got := range map[string][]geom.Point{
					"conceptual": core.TwoSelectsConceptual(b, f, kSel, f2, kSel+3, nil),
					"optimized":  core.TwoSelects(b, f, kSel, f2, kSel+3, nil),
				} {
					if diff := sortedPoints(got); !reflect.DeepEqual(diff, wantTwoSel) {
						t.Fatalf("%s/seed %d: two-selects %s diverged from AoS reference", kind, seed, name)
					}
				}

				// Footnote-1 extension: range selection on the join's inner.
				var wantRange []core.Pair
				for _, pr := range refKNNJoin(aPts, bPts, kJoin) {
					if rng.Contains(pr.Right) {
						wantRange = append(wantRange, pr)
					}
				}
				wantRangeS := sortedPairs(wantRange)
				for name, got := range map[string][]core.Pair{
					"conceptual":    rangeJoin(core.AlgorithmConceptual, a, b, rng, kJoin, nil),
					"counting":      rangeJoin(core.AlgorithmCounting, a, b, rng, kJoin, nil),
					"block-marking": rangeJoin(core.AlgorithmBlockMarking, a, b, rng, kJoin, nil),
				} {
					if diff := sortedPairs(got); !reflect.DeepEqual(diff, wantRangeS) {
						t.Fatalf("%s/seed %d: range-inner-join %s diverged from AoS reference", kind, seed, name)
					}
				}
			}
		})
	}
}

// refIntersectPoints returns points present in both sets.
func refIntersectPoints(as, bs []geom.Point) []geom.Point {
	inB := make(map[geom.Point]bool, len(bs))
	for _, p := range bs {
		inB[p] = true
	}
	var out []geom.Point
	for _, p := range as {
		if inB[p] {
			out = append(out, p)
		}
	}
	return out
}

// TestLayoutStoreScanOrderMatchesPoints pins the span bookkeeping itself:
// for every index family, walking blocks through the flat X/Y columns must
// visit exactly the store's points in scan order, and the store's stable
// IDs must recover the original input order.
func TestLayoutStoreScanOrderMatchesPoints(t *testing.T) {
	bounds := geom.NewRect(0, 0, 500, 500)
	pts := equivPoints(777, bounds, 99)
	for _, kind := range testutil.AllIndexKinds {
		rel := testutil.BuildRelation(t, kind, pts)
		st := rel.Store()
		if st == nil {
			t.Fatalf("%s: static index exposes no relation-wide store", kind)
		}
		if st.Len() != len(pts) {
			t.Fatalf("%s: store holds %d points, want %d", kind, st.Len(), len(pts))
		}
		pos := 0
		for _, b := range rel.Ix.Blocks() {
			off, n := b.Span()
			if off != pos {
				t.Fatalf("%s: block %d starts at store offset %d, want contiguous %d", kind, b.ID, off, pos)
			}
			xs, ys := b.XYs()
			for i := range xs {
				if st.Xs[off+i] != xs[i] || st.Ys[off+i] != ys[i] {
					t.Fatalf("%s: span view disagrees with store at %d", kind, off+i)
				}
			}
			pos += n
		}
		if pos != st.Len() {
			t.Fatalf("%s: blocks cover %d store points, want %d", kind, pos, st.Len())
		}
		// Stable IDs invert the permutation back to input order.
		seen := make([]bool, len(pts))
		for i := 0; i < st.Len(); i++ {
			id := st.ID(i)
			if id < 0 || int(id) >= len(pts) {
				t.Fatalf("%s: stable ID %d out of range", kind, id)
			}
			if seen[id] {
				t.Fatalf("%s: stable ID %d appears twice", kind, id)
			}
			seen[id] = true
			if st.At(i) != pts[id] {
				t.Fatalf("%s: store point %d = %v, but input[%d] = %v", kind, i, st.At(i), id, pts[id])
			}
		}
	}
}
