package core

import (
	"repro/internal/geom"
	"repro/internal/stats"
)

// This file implements the extension announced in footnote 1 of the paper's
// Section 3: the invalid-pushdown problem — and its Counting/Block-Marking
// remedies — applies equally when the selection on the inner relation of a
// kNN-join is a spatial *range* predicate instead of a kNN-select:
//
//	(E1 ⋈kNN E2) ∩ (E1 × σ_range(E2))
//
// — pairs (e1, e2) with e2 among the k⋈ nearest neighbors of e1 AND inside
// the query rectangle. Pushing the range filter below the inner relation
// shrinks every neighborhood and changes the answer, exactly as with a
// kNN-select. The Section 3 procedures carry over unchanged
// (SelectInnerJoin); only the thresholds simplify: the "selected set" is
// the rectangle itself, so distances to it are MINDIST values and the
// f-neighborhood radius term disappears.

// RangeSelection describes σ_rng for SelectInnerJoin: Counting's per-tuple
// threshold is MINDIST²(e1, rectangle), a block is Non-Contributing when
// r + diagonal < MINDIST(center, rectangle), and the contour scan starts at
// the rectangle's center (the range analogue of scanning from f).
func RangeSelection(rng geom.Rect) InnerSelection {
	return InnerSelection{
		Focal:           rng.Center(),
		ThresholdSq:     rng.MinDistSq,
		NonContributing: func(center geom.Point, reach float64) bool { return reach < rng.MinDist(center) },
		Contains:        rng.Contains,
	}
}

// InvalidRangeInnerPushdown pushes the range filter below the inner relation
// of the join — the WRONG plan, implemented for the semantics tests of the
// footnote-1 extension.
func InvalidRangeInnerPushdown(outer, inner *Relation, rng geom.Rect, kJoin int,
	build func(pts []geom.Point) (*Relation, error), c *stats.Counters) ([]Pair, error) {

	var selected []geom.Point
	inner.ForEachPoint(func(p geom.Point) {
		if rng.Contains(p) {
			selected = append(selected, p)
		}
	})
	reduced, err := build(selected)
	if err != nil {
		return nil, err
	}
	return KNNJoin(outer, reduced, kJoin, c), nil
}
