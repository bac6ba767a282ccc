package core

import (
	"slices"

	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/stats"
)

// This file implements Section 4.1 of the paper: two *unchained* kNN-joins
//
//	(A ⋈kNN B) ∩_B (C ⋈kNN B)
//
// — triplets (a, b, c) where b is among the kA-B nearest neighbors of a AND
// among the kC-B nearest neighbors of c. Evaluating either join "first" and
// feeding its output into the other is wrong (Figures 8–9); the correct
// conceptual plan evaluates both joins independently and intersects their
// pair sets on the shared B component (Figure 10). The Block-Marking plan
// (Procedure 4) runs the second join as a select-inner-join whose selection
// is the first join's B-projection, so its blocks are marked by the one
// Section 3 body.

// JoinOrder selects which of the two unchained joins is evaluated first.
type JoinOrder int

const (
	// OrderAuto picks the join whose outer relation has the smaller cluster
	// coverage (Section 4.1.2: start with the more clustered relation).
	OrderAuto JoinOrder = iota

	// OrderABFirst evaluates (A ⋈ B) first and prunes blocks of C.
	OrderABFirst

	// OrderCBFirst evaluates (C ⋈ B) first and prunes blocks of A.
	OrderCBFirst
)

// String implements fmt.Stringer.
func (o JoinOrder) String() string {
	switch o {
	case OrderABFirst:
		return "ab-first"
	case OrderCBFirst:
		return "cb-first"
	default:
		return "auto"
	}
}

// Unchained evaluates the query with both kNN-joins fanned out across
// workers (≤ 1: sequential; the result does not depend on it, order
// included).
//
// Without pruning it is the conceptually correct QEP of Figure 10: both
// joins run in full and their outputs are intersected on B. With pruning it
// is the optimized plan of Procedure 4: the first join runs in full, and the
// second is SelectInnerJoin's Block-Marking over the b's the first join
// produced (pointSetSelection). A block of the second join's outer relation
// is Non-Contributing when none of those b's lies within r + diagonal of its
// center, where r is the distance from the center to its kSecond-th neighbor
// in B (Theorem 1); its points never reach a selected b and are skipped. The
// test needs only B's neighborhoods, so it prunes over every backing of B.
// order chooses the first join; OrderAuto applies the Section 4.1.2
// heuristic (start with the relation of smaller cluster coverage). The first
// join's b ids serve the intersection.
func Unchained(a, b, cRel Operand, kAB, kCB int, prune bool, order JoinOrder, workers int, c *stats.Counters) []Triple {
	if !prune {
		abPairs := Join(a, b, kAB, workers, c)
		cbPairs := Join(cRel, b, kCB, workers, c)
		return IntersectOnB(abPairs, cbPairs)
	}
	if order == OrderAuto {
		if EstimateClusterCoverage(a) <= EstimateClusterCoverage(cRel) {
			order = OrderABFirst
		} else {
			order = OrderCBFirst
		}
	}
	if order == OrderABFirst {
		abPairs := Join(a, b, kAB, workers, c)
		ids := indexB(abPairs, onRight)
		cbPairs := SelectInnerJoin(cRel, b, pointSetSelection(ids), kCB, AlgorithmBlockMarking, BlockMarkingOptions{Exhaustive: true}, workers, c)
		return joinOnB(nil, abPairs, groupOn(ids, cbPairs, onRight, 0))
	}
	cbPairs := Join(cRel, b, kCB, workers, c)
	ids := indexB(cbPairs, onRight)
	abPairs := SelectInnerJoin(a, b, pointSetSelection(ids), kAB, AlgorithmBlockMarking, BlockMarkingOptions{Exhaustive: true}, workers, c)
	return joinOnB(nil, abPairs, groupOn(ids, cbPairs, onRight, 0))
}

// pointSetSelection selects the b's of ids (indexB's), the selection of
// Procedure 4's second join. A block is Non-Contributing when every b lies
// farther than its reach, compared squared against the nearest b. A point
// set has no focal point, so the marking is exhaustive; Counting's
// threshold is left nil.
func pointSetSelection(ids map[geom.Point]int32) InnerSelection {
	if len(ids) == 0 {
		return InnerSelection{}
	}
	bs := make([]geom.Point, len(ids))
	for b, id := range ids {
		bs[id] = b
	}
	xs, ys := geom.FlatXYs(bs)
	return InnerSelection{
		NonContributing: func(center geom.Point, reach float64) bool {
			return reach*reach < kernel.MinDistSq(xs, ys, center.X, center.Y)
		},
		Contains: func(p geom.Point) bool { return hasB(ids, p) },
	}
}

// UnchainedConceptual is the sequential conceptual plan of Figure 10.
func UnchainedConceptual(a, b, cRel *Relation, kAB, kCB int, c *stats.Counters) []Triple {
	return Unchained(a, b, cRel, kAB, kCB, false, OrderAuto, 1, c)
}

// UnchainedBlockMarking is the sequential Procedure 4 plan.
func UnchainedBlockMarking(a, b, cRel *Relation, kAB, kCB int, order JoinOrder, c *stats.Counters) []Triple {
	return Unchained(a, b, cRel, kAB, kCB, true, order, 1, c)
}

// IntersectOnB matches (a, b) pairs with (c, b) pairs sharing the same b —
// the gather step of every unchained-joins plan — as a bag: rows come in
// abPairs order, then cbPairs order, counted first and written once.
func IntersectOnB(abPairs, cbPairs []Pair) []Triple {
	return joinOnB(nil, abPairs, groupOn(indexB(abPairs, onRight), cbPairs, onRight, 0))
}

// onRight and onLeft return a pair's b — its Right or its Left — and the
// pair's other component.
func onRight(pr Pair) (b, x geom.Point) { return pr.Right, pr.Left }
func onLeft(pr Pair) (b, x geom.Point)  { return pr.Left, pr.Right }

// indexB gives the distinct b's of pairs dense ids, in first-occurrence order.
func indexB(pairs []Pair, on func(Pair) (b, x geom.Point)) map[geom.Point]int32 {
	ids := make(map[geom.Point]int32)
	for _, pr := range pairs {
		if b, _ := on(pr); !hasB(ids, b) {
			ids[b] = int32(len(ids))
		}
	}
	return ids
}

func hasB(ids map[geom.Point]int32, b geom.Point) bool { _, ok := ids[b]; return ok }

// bGroups holds points grouped under the ids of indexB in one flat array:
// group id is pts[off[id]:off[id+1]].
type bGroups struct {
	ids map[geom.Point]int32
	off []int32
	pts []geom.Point
}

func (g *bGroups) of(b geom.Point) []geom.Point {
	if id, ok := g.ids[b]; ok {
		return g.pts[g.off[id]:g.off[id+1]]
	}
	return nil
}

// groupOn counting-sorts the x's of pairs under their b's id, in pair order
// and at most maxLen per group (≤ 0: no cap); a pair whose b has no id drops.
func groupOn(ids map[geom.Point]int32, pairs []Pair, on func(Pair) (b, x geom.Point), maxLen int) bGroups {
	// off[id+2] counts group id; after the prefix sum off[id+1] is its start
	// and then its cursor, which leaves off[id] and off[id+1] its bounds.
	off := make([]int32, len(ids)+2)
	at := make([]int32, len(pairs)) // each pair's group, -1 for none
	for i, pr := range pairs {
		b, _ := on(pr)
		id, ok := ids[b]
		if !ok || (maxLen > 0 && int(off[id+2]) == maxLen) {
			id = -1
		} else {
			off[id+2]++
		}
		at[i] = id
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	pts := make([]geom.Point, off[len(off)-1])
	for i, pr := range pairs {
		if id := at[i]; id >= 0 {
			_, pts[off[id+1]] = on(pr)
			off[id+1]++
		}
	}
	return bGroups{ids, off, pts}
}

// joinOnB appends (a, b, x) for each (a, b) pair and each x of b's group to
// dst, in pair order, growing dst once by the rows it counts first.
func joinOnB(dst []Triple, abPairs []Pair, g bGroups) []Triple {
	n := 0
	for _, pr := range abPairs {
		n += len(g.of(pr.Right))
	}
	dst = slices.Grow(dst, n)
	for _, pr := range abPairs {
		for _, x := range g.of(pr.Right) {
			dst = append(dst, Triple{A: pr.Left, B: pr.Right, C: x})
		}
	}
	return dst
}

// SequentialUnchained evaluates the WRONG plans of Figures 8 and 9: one join
// runs first and its B-projection replaces the inner relation of the other
// join. abFirst selects which join runs first. Implemented only for the
// semantics tests that reproduce the paper's counter-example.
func SequentialUnchained(a, b, cRel *Relation, kAB, kCB int, abFirst bool,
	build func(pts []geom.Point) (*Relation, error), c *stats.Counters) ([]Triple, error) {

	if abFirst {
		abPairs := KNNJoin(a, b, kAB, c)
		reduced, err := build(projectB(abPairs))
		if err != nil {
			return nil, err
		}
		cbPairs := KNNJoin(cRel, reduced, kCB, c)
		return IntersectOnB(abPairs, cbPairs), nil
	}
	cbPairs := KNNJoin(cRel, b, kCB, c)
	reduced, err := build(projectB(cbPairs))
	if err != nil {
		return nil, err
	}
	abPairs := KNNJoin(a, reduced, kAB, c)
	return IntersectOnB(abPairs, cbPairs), nil
}

// projectB returns the distinct Right (B) components of pairs, in canonical
// point order: sort-and-compact on a plain slice instead of a hash set. The
// output feeds a relation constructor, for which point order is immaterial.
func projectB(pairs []Pair) []geom.Point {
	if len(pairs) == 0 {
		return nil
	}
	out := make([]geom.Point, len(pairs))
	for i, pr := range pairs {
		out[i] = pr.Right
	}
	SortPoints(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// EstimateClusterCoverage estimates what fraction of the indexed region a
// relation's points actually occupy: the total area of non-empty blocks over
// the area its indexes cover. Uniform data approaches 1; tightly clustered
// data approaches the clusters' relative area. The Section 4.1.2 join-order
// heuristic starts with the relation of smaller coverage.
func EstimateClusterCoverage(rel Operand) float64 {
	total := rel.Extent()
	if total <= 0 {
		return 1
	}
	occupied := 0.0
	for _, u := range rel.Units() {
		if u.Count() > 0 {
			occupied += u.Bounds().Area()
		}
	}
	frac := occupied / total
	if frac > 1 {
		frac = 1 // overlapping units (delta chunks, shards) can sum past the total
	}
	return frac
}
