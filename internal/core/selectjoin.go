package core

import (
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/kernel"
	"repro/internal/stats"
)

// This file implements Section 3 of the paper: queries that combine a
// kNN-join with a selection on its *inner* relation,
//
//	(E1 ⋈kNN E2) ∩ (E1 × σ(E2))
//
// i.e. pairs (e1, e2) such that e2 is among the k⋈ nearest neighbors of e1
// AND satisfies σ — a kNN-select σ_{kσ,f} in the paper's text, a spatial
// range in its footnote 1 (rangeselect.go). Pushing the selection below the
// join is invalid; the Counting and Block-Marking algorithms recover the
// pruning a pushdown would have provided without changing the answer. Each
// algorithm exists once, over an InnerSelection value that carries what it
// needs to know about σ.

// Algorithm identifies an evaluation strategy for a kNN-join with a
// selection on its inner relation.
type Algorithm int

// The inner-selection join strategies.
const (
	// AlgorithmAuto runs both exact prunes: Block-Marking's block prune
	// (Procedures 2–3), then Counting's tuple prune (Procedure 1) in the
	// contributing blocks. Neither drops a row, so together they drop none.
	AlgorithmAuto Algorithm = iota

	// AlgorithmConceptual evaluates the full join and filters it by the
	// selection: the conceptually correct QEP of Figure 1, the correctness
	// baseline and the slow comparator of Figures 19–21.
	AlgorithmConceptual

	// AlgorithmCounting is the per-tuple pruning algorithm (Procedure 1).
	AlgorithmCounting

	// AlgorithmBlockMarking is the per-block pruning algorithm
	// (Procedures 2–3).
	AlgorithmBlockMarking
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgorithmConceptual:
		return "conceptual"
	case AlgorithmCounting:
		return "counting"
	case AlgorithmBlockMarking:
		return "block-marking"
	default:
		return "auto"
	}
}

// InnerSelection is a selection on the inner relation of a kNN-join, in the
// form the Section 3 algorithms consume it. The zero value selects nothing.
type InnerSelection struct {
	// Focal is where the Block-Marking contour scan starts: the blocks of
	// the outer relation are visited in MINDIST order from it.
	Focal geom.Point

	// ThresholdSq is Counting's per-tuple search threshold: the squared
	// distance from e1 to the nearest selected location. Once k⋈ inner
	// points lie strictly closer to e1 than that, e1's neighborhood cannot
	// reach the selection. It travels squared end to end (compared against
	// block MAXDIST² values) so exact ties stay exact.
	ThresholdSq func(e1 geom.Point) float64

	// NonContributing is Block-Marking's per-block bound: whether no point
	// of a block can join into the selection, given the block's center and
	// its reach — the distance from the center to its k⋈-th inner neighbor
	// plus the block diagonal, which bounds the k⋈-th-neighbor distance of
	// every point in the block (Theorem 1: the center minimizes it).
	NonContributing func(center geom.Point, reach float64) bool

	// Contains reports whether an inner point is selected. Nil marks the
	// empty selection.
	Contains func(p geom.Point) bool
}

// NewKNNSelection describes σ_{kσ,f} given its already evaluated answer:
// the selected points and the distance from f to the farthest of them. The
// points are copied out of the caller's (typically searcher-owned, reused)
// slice: once as the sorted membership set, once flattened to X/Y columns
// so Counting's per-tuple threshold — a scan of kσ points per outer tuple —
// runs through the batched MinDistSq kernel (bit-identical to
// Neighborhood.NearestDistSqTo: same operations, NaN lanes skipped, and min
// is order-insensitive over non-negative squared distances). No points
// selects nothing.
func NewKNNSelection(f geom.Point, selected []geom.Point, farthest float64) InnerSelection {
	if len(selected) == 0 {
		return InnerSelection{}
	}
	set := sortedPoints(selected)
	xs, ys := geom.FlatXYs(selected)
	return InnerSelection{
		Focal:       f,
		ThresholdSq: func(e1 geom.Point) float64 { return kernel.MinDistSq(xs, ys, e1.X, e1.Y) },
		// r + diagonal + fFarthest < fCenter: even the block point nearest
		// to f's neighborhood has k⋈ inner points closer than any selected
		// one.
		NonContributing: func(center geom.Point, reach float64) bool { return reach+farthest < center.Dist(f) },
		Contains:        func(p geom.Point) bool { return ContainsPoint(set, p) },
	}
}

// KNNSelection evaluates σ_{kSel,f} over inner and describes it.
func KNNSelection(inner Operand, f geom.Point, kSel int, c *stats.Counters) InnerSelection {
	p, _ := inner.Borrow(0, c)
	defer inner.Return(p)
	nbrF := p.Neighborhood(f, kSel, c)
	return NewKNNSelection(f, nbrF.Points, nbrF.FarthestDist())
}

// BlockMarkingOptions tune the Block-Marking algorithm.
type BlockMarkingOptions struct {
	// Exhaustive disables the contour early-stop of the preprocessing phase
	// (Procedure 3): every non-empty outer block is checked individually.
	// Exhaustive preprocessing is automatically used where the contour
	// argument does not hold (ContourApplies).
	Exhaustive bool
}

// SelectInnerJoin evaluates (outer ⋈kNN inner) ∩ (outer × σ(inner)) with
// the chosen algorithm, the join fanned out across workers (≤ 1:
// sequential; the result does not depend on it, order included).
//
// Conceptual runs the full kNN-join and filters it. Counting (Procedure 1)
// derives a search threshold per outer point e1 and counts inner points in
// blocks that lie entirely (strictly) within it; once the count reaches k⋈,
// e1's neighborhood provably cannot reach the selection and e1 is skipped
// without a neighborhood computation. The comparisons are strict (count
// blocks with MAXDIST < threshold, skip at count ≥ k⋈): a point at exactly
// the threshold distance ties with the nearest selected one, and the
// (distance, X, Y) tie order may rank the selected point ahead of it, so
// only strictly closer points may vote for the skip. Block-Marking
// (Procedures 2–3) marks each block of the *outer* relation Contributing or
// Non-Contributing in a preprocessing pass and joins only the points of
// Contributing blocks; the marking itself stays sequential — its contour
// early-stop is a data-dependent scan in MINDIST order that cannot be split
// without giving up the early termination — and a block it discards is never
// scanned, which over a remote outer side means never fetched. Auto marks,
// then runs Counting over the points of the Contributing blocks only.
func SelectInnerJoin(outer, inner Operand, sel InnerSelection, kJoin int, alg Algorithm,
	opt BlockMarkingOptions, workers int, c *stats.Counters) []Pair {

	if alg == AlgorithmConceptual {
		pairs := Join(outer, inner, kJoin, workers, c)
		out := pairs[:0:0]
		if sel.Contains == nil {
			return out
		}
		for _, pr := range pairs {
			if sel.Contains(pr.Right) {
				out = append(out, pr)
			}
		}
		return out
	}
	if kJoin <= 0 || sel.Contains == nil {
		return nil
	}
	if alg == AlgorithmCounting {
		return joinUnits(outer.Units(), inner, kJoin, workers, 0, c, nil, sel.ThresholdSq, sel.Contains)
	}
	units, closerThan := markContributingBlocks(outer, inner, sel, kJoin, opt, c), sel.ThresholdSq
	if alg == AlgorithmBlockMarking {
		closerThan = nil
	}
	return joinUnits(units, inner, kJoin, workers, 0, c, nil, closerThan, sel.Contains)
}

// SelectInnerJoinConceptual is the sequential conceptual plan for a
// kNN-select on the inner relation.
func SelectInnerJoinConceptual(outer, inner *Relation, f geom.Point, kJoin, kSel int, c *stats.Counters) []Pair {
	return SelectInnerJoin(outer, inner, KNNSelection(inner, f, kSel, c), kJoin, AlgorithmConceptual, BlockMarkingOptions{}, 1, c)
}

// SelectInnerJoinCounting is the sequential Counting algorithm for a
// kNN-select on the inner relation.
func SelectInnerJoinCounting(outer, inner *Relation, f geom.Point, kJoin, kSel int, c *stats.Counters) []Pair {
	return SelectInnerJoin(outer, inner, KNNSelection(inner, f, kSel, c), kJoin, AlgorithmCounting, BlockMarkingOptions{}, 1, c)
}

// SelectInnerJoinBlockMarking is the sequential Block-Marking algorithm for
// a kNN-select on the inner relation.
func SelectInnerJoinBlockMarking(outer, inner *Relation, f geom.Point, kJoin, kSel int,
	opt BlockMarkingOptions, c *stats.Counters) []Pair {

	return SelectInnerJoin(outer, inner, KNNSelection(inner, f, kSel, c), kJoin, AlgorithmBlockMarking, opt, 1, c)
}

// InvalidInnerPushdown is the plan of Figure 2: the kNN-select is pushed
// below the inner relation of the kNN-join, so the join sees only the kσ
// selected points. The paper proves this plan WRONG — it is implemented
// solely so the semantics tests can reproduce Figures 1 vs 2. Building the
// reduced inner relation uses the supplied constructor so the caller
// controls the index kind.
func InvalidInnerPushdown(outer, inner *Relation, f geom.Point, kJoin, kSel int,
	build func(pts []geom.Point) (*Relation, error), c *stats.Counters) ([]Pair, error) {

	selected := KNNSelect(inner, f, kSel, c)
	reduced, err := build(selected)
	if err != nil {
		return nil, err
	}
	return KNNJoin(outer, reduced, kJoin, c), nil
}

// SelectOuterJoin evaluates a query with the kNN-select on the *outer*
// relation of the join: (σ_{kσ,f}(E1)) ⋈kNN E2. Pushing the selection below
// the outer relation is valid (Figure 3 of the paper), so this simply
// selects and then joins the selected points, fanned out across workers in
// contiguous chunks. The result is non-nil for valid kJoin.
func SelectOuterJoin(outer, inner Operand, f geom.Point, kSel, kJoin, workers int, c *stats.Counters) []Pair {
	selected := KNNSelect(outer, f, kSel, c)
	if kJoin <= 0 {
		return nil
	}
	out := joinUnits(pointUnits(selected, workers), inner, kJoin, workers, len(selected)*min(kJoin, inner.Len()), c, nil, nil, nil)
	if out == nil {
		out = []Pair{}
	}
	return out
}

// ContourApplies reports whether Procedure 3's contour early-stop holds for
// outer: closing a cycle of Non-Contributing blocks around the focal point
// prunes everything beyond it only when the scanned blocks are one index's
// and tile space. Elsewhere — a written relation's overlay snapshot, a
// sharded or remote outer side — Block-Marking preprocesses exhaustively:
// the same test, block by block, still correct and still pruning the join
// itself.
func ContourApplies(outer Operand) bool {
	ixs := outer.Indexes()
	return len(ixs) == 1 && index.TilesSpace(ixs[0])
}

// markContributingBlocks is the preprocessing phase (Procedure 3), on a
// probe of its own over inner. It scans the outer blocks in MINDIST order
// from the selection's focal point (one in-process index) or in unit order
// (several, or remote ones: their blocks have no common order, and none is
// needed without the contour). A block is Non-Contributing when the
// selection says so of its center and reach r + diagonal, where r is the
// distance from the block center to the k⋈-th neighbor of the center in the
// inner relation. With the contour optimization, scanning stops once a
// complete cycle of Non-Contributing blocks has been closed: when the scan
// reaches a block whose MINDIST from the focal point is at least the
// MAXDIST (M) of the first Non-Contributing block of the current cycle, all
// remaining blocks are pruned without inspection. The exhaustive form tests
// each block on its own, so it leaves the empty ones alone: they contribute
// nothing either way, and a test costs a neighborhood — over remote shards,
// round trips.
//
// The MINDIST scan reuses the iterator of a spare handle of an in-process
// outer relation, taken after the inner probe and without waiting, so two
// sides sharing one bounded pool cannot block each other.
func markContributingBlocks(outer, inner Operand, sel InnerSelection,
	kJoin int, opt BlockMarkingOptions, c *stats.Counters) []Unit {

	p, _ := inner.Borrow(0, c)
	defer inner.Return(p)

	exhaustive := opt.Exhaustive || !ContourApplies(outer)
	// The scan is a block iterator over the one index, or the units, which
	// are then filtered in place.
	var scan index.BlockIter
	var units, contributing []Unit
	var total int
	if ixs := outer.Indexes(); len(ixs) == 1 {
		// A spare handle of an in-process relation lends its iterator.
		var h *Relation
		if r, ok := outer.(interface{ TryAcquire() (*Relation, error) }); ok {
			h, _ = r.TryAcquire()
		}
		if h != nil {
			defer h.Release()
			if h.scan == nil {
				h.scan = index.NewIterPool(h.Ix)
			}
			scan = h.scan.MinDist(sel.Focal)
		} else {
			scan = index.MinDistOrder(ixs[0], sel.Focal)
		}
		total = len(ixs[0].Blocks())
		contributing = make([]Unit, 0, total)
	} else {
		units = outer.Units()
		total, contributing = len(units), units[:0]
	}

	mSq := -1.0 // squared MAXDIST of the first NC block of the open cycle; <0: no open cycle
	scanned := 0
	for i := 0; scan != nil || i < len(units); i++ {
		u, minSq := Unit{}, 0.0 // minSq: MINDIST² from the focal point, 0 in unit order
		if scan == nil {
			u = units[i]
		} else if b, keySq, ok := scan.Next(); ok {
			u, minSq = Unit{Block: b}, keySq
		} else {
			break
		}
		if exhaustive && u.Count() == 0 {
			continue
		}
		if !exhaustive && mSq >= 0 && minSq >= mSq {
			// Contour closed: every block with MINDIST < M was scanned and
			// found Non-Contributing; the rest cannot contribute.
			c.AddBlocksPruned(total - scanned)
			break
		}
		scanned++

		bounds := u.Bounds()
		center := bounds.Center()
		nbr := p.Neighborhood(center, kJoin, c)

		// The NC guarantee needs a full-size neighborhood: with fewer than
		// k⋈ inner points inside radius r, the bound on a block point's
		// k⋈-th-NN distance does not hold.
		if nbr.Len() == kJoin && sel.NonContributing(center, nbr.FarthestDist()+bounds.Diagonal()) {
			c.AddBlocksPruned(1)
			if mSq < 0 {
				mSq = bounds.MaxDistSq(sel.Focal) // first NC block of a new cycle
			}
			continue
		}
		mSq = -1 // cycle broken; start over
		if u.Count() > 0 {
			contributing = append(contributing, u)
		}
	}
	c.AddBlocksScanned(scanned)
	return contributing
}
