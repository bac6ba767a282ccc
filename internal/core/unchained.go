package core

import (
	"slices"

	"repro/internal/geom"
	"repro/internal/index"
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
// (Procedure 4) prunes blocks of the second join's outer relation using
// Candidate/Safe marks on B's blocks.

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
// is the optimized plan of Procedure 4: the first join runs in full; blocks
// of B that received at least one join result are marked Candidate (all
// others are Safe). The outer relation of the second join is then
// preprocessed: a block is Non-Contributing when no Candidate block of B
// lies within (r + diagonal) of its center, where r is the distance from
// the center to its kSecond-th neighbor in B. Points of Non-Contributing
// blocks never reach a Candidate b and are skipped. order chooses the first
// join; OrderAuto applies the Section 4.1.2 heuristic (start with the
// relation of smaller cluster coverage). Marking Candidates takes B's blocks
// in-process (Operand.Indexes); over a remote B the second join runs
// unpruned. Either way the second join keeps only pairs whose b the first
// join produced, and the first join's b ids serve the intersection.
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
		return joinOnB(nil, abPairs, groupOn(ids, prunedSecondJoin(cRel, b, kCB, abPairs, ids, workers, c), onRight, 0))
	}
	cbPairs := Join(cRel, b, kCB, workers, c)
	ids := indexB(cbPairs, onRight)
	return joinOnB(nil, prunedSecondJoin(a, b, kAB, cbPairs, ids, workers, c), groupOn(ids, cbPairs, onRight, 0))
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

// prunedSecondJoin evaluates (second ⋈kNN b) restricted to points in
// Contributing blocks, given the pairs produced by the first join and the
// ids of their b's: the Contributing gate runs once per block on the
// claiming worker's own probe, points of Contributing blocks join as usual,
// and only pairs whose b has an id are kept.
func prunedSecondJoin(second, b Operand, k int, firstPairs []Pair, ids map[geom.Point]int32, workers int, c *stats.Counters) []Pair {
	keep := func(bp geom.Point) bool { return hasB(ids, bp) }
	ixs := b.Indexes()
	if ixs == nil {
		return joinUnits(second.Units(), b, k, workers, 0, c, nil, nil, keep)
	}
	candidates := candidateRegions(ixs, firstPairs)
	gate := func(p Probe, u Unit, ctr *stats.Counters) bool {
		if u.Count() == 0 {
			return false
		}
		if !blockContributes(u.Bounds(), p, k, candidates, ctr) {
			ctr.AddBlocksPruned(1)
			return false
		}
		return true
	}
	return joinUnits(second.Units(), b, k, workers, 0, c, gate, nil, keep)
}

// candidateRegions returns the regions of B's blocks holding at least one
// Right component of the first join's results (the paper's Candidate
// blocks; every other block of B is Safe). Over several indexes — the
// shards of a group — a point marks the block each one locates it in: one
// of them stores it, and the others' regions cover it just the same, which
// is all the Contributing test asks of a Candidate.
func candidateRegions(ixs []index.Index, firstPairs []Pair) []geom.Rect {
	marked := make([][]bool, len(ixs))
	for i, ix := range ixs {
		marked[i] = make([]bool, len(ix.Blocks()))
	}
	var out []geom.Rect
	for _, pr := range firstPairs {
		for i, ix := range ixs {
			blk := ix.Locate(pr.Right)
			if blk != nil && !marked[i][blk.ID] {
				marked[i][blk.ID] = true
				out = append(out, blk.Bounds)
			}
		}
	}
	return out
}

// blockContributes applies the Procedure 4 test to one block of the second
// join's outer relation: the block contributes if any Candidate block of B
// is fully or partially within the search threshold r + diagonal of the
// block's center.
func blockContributes(blk geom.Rect, b Probe, k int, candidates []geom.Rect, c *stats.Counters) bool {
	center := blk.Center()
	nbr := b.Neighborhood(center, k, c)
	if nbr.Len() < k {
		// Fewer than k points in B: the pruning bound does not apply.
		return true
	}
	thr := nbr.FarthestDist() + blk.Diagonal()
	thrSq := thr * thr
	for _, cand := range candidates {
		if cand.MinDistSq(center) <= thrSq {
			return true
		}
	}
	return false
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
