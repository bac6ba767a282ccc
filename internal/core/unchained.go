package core

import (
	"math"
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
// pair sets on the shared B component (Figure 10). The pruned plan
// (Procedure 4) runs the second join as a select-inner-join whose selection
// is the first join's B-projection, so its blocks and tuples are pruned by
// the one Section 3 body.

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
// second is SelectInnerJoin's Auto over the b's the first join produced
// (pointSetSelection). A block of the second join's outer relation is
// Non-Contributing when none of those b's lies within r + diagonal of its
// center, where r is the distance from the center to its kSecond-th neighbor
// in B (Theorem 1); its points never reach a selected b and are skipped.
// In the blocks that remain, Counting skips each point with kSecond points
// of B strictly closer than the nearest b (Procedure 1). The tests need
// only B's neighborhoods and counts, so they prune over every backing of B.
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
		cbPairs := SelectInnerJoin(cRel, b, pointSetSelection(ids), kCB, AlgorithmAuto, BlockMarkingOptions{Exhaustive: true}, workers, c)
		return joinOnB(nil, abPairs, groupOn(ids, cbPairs, onRight, 0))
	}
	cbPairs := Join(cRel, b, kCB, workers, c)
	ids := indexB(cbPairs, onRight)
	abPairs := SelectInnerJoin(a, b, pointSetSelection(ids), kAB, AlgorithmAuto, BlockMarkingOptions{Exhaustive: true}, workers, c)
	return joinOnB(nil, abPairs, groupOn(ids, cbPairs, onRight, 0))
}

// pointSetSelection selects the b's of ids (indexB's), the selection of
// Procedure 4's second join. It builds one nearestGrid over the b's, which
// serves both prunes: a block is Non-Contributing when the nearest b lies
// farther than its reach, and Counting's threshold for an outer point is
// the squared distance to the nearest b. A point set has no focal point, so
// the marking is exhaustive.
func pointSetSelection(ids map[geom.Point]int32) InnerSelection {
	if len(ids) == 0 {
		return InnerSelection{}
	}
	g := newNearestGrid(ids)
	return InnerSelection{
		ThresholdSq: g.minDistSq,
		NonContributing: func(center geom.Point, reach float64) bool {
			return reach*reach < g.minDistSq(center)
		},
		Contains: func(p geom.Point) bool { return hasB(ids, p) },
	}
}

// nearestGrid is a read-only uniform grid over a point set: the points are
// counting-sorted into row-major cells (as groupOn groups pairs), so a run
// of cells along a row is one span of the flat columns. minDistSq scans the
// cells in rings around the query's cell while a lower bound on the points
// beyond the scanned rings is below the best distance found. The bounds
// come from the points' own coordinates, never from cell arithmetic, and
// float subtraction and squaring are monotone, so the answer is
// kernel.MinDistSq's over the whole set, bit for bit.
type nearestGrid struct {
	x, y   gridAxis
	off    []int32 // cell i + j·x.n holds xs[off[c]:off[c+1]]
	xs, ys []float64
}

// gridAxis is one side of a nearestGrid. Coordinate v lies in cell
// ⌊(v−v0)·inv⌋, clamped into [0, n); lo[i] is the least coordinate of a
// point in cells ≥ i and hi[i] the greatest in cells ≤ i (±Inf for none).
type gridAxis struct {
	v0, inv float64
	n       int
	lo, hi  []float64
}

// newNearestGrid builds the grid over the points of ids, about 16 to a
// square cell, in two allocations besides the grid.
func newNearestGrid(ids map[geom.Point]int32) *nearestGrid {
	n, inf := len(ids), math.Inf(1)
	cells := max(1, n/16)
	fs := make([]float64, 4*n+4*cells) // the points in id order, the columns, the axes' bounds
	px, py := fs[:n], fs[n:2*n]
	minX, minY, maxX, maxY := inf, inf, -inf, -inf
	for p, id := range ids {
		px[id], py[id] = p.X, p.Y
		minX, minY, maxX, maxY = min(minX, p.X), min(minY, p.Y), max(maxX, p.X), max(maxY, p.Y)
	}
	g := &nearestGrid{xs: fs[2*n : 3*n], ys: fs[3*n : 4*n]}
	g.x.size(minX, maxX-minX, maxY-minY, cells, fs[4*n:])
	g.y.size(minY, maxY-minY, maxX-minX, cells, fs[4*n+2*g.x.n:])
	// off[c+2] counts cell c; after the prefix sum off[c+1] is its start
	// and then its cursor, which leaves off[c] and off[c+1] its bounds.
	g.off = make([]int32, g.x.n*g.y.n+2)
	for k, x := range px {
		g.off[g.x.cell(x)+g.y.cell(py[k])*g.x.n+2]++
	}
	for c := 2; c < len(g.off); c++ {
		g.off[c] += g.off[c-1]
	}
	for k, x := range px {
		y := py[k]
		i, j := g.x.cell(x), g.y.cell(y)
		at := &g.off[i+j*g.x.n+1]
		g.xs[*at], g.ys[*at] = x, y
		*at++
		g.x.lo[i], g.x.hi[i] = min(g.x.lo[i], x), max(g.x.hi[i], x)
		g.y.lo[j], g.y.hi[j] = min(g.y.lo[j], y), max(g.y.hi[j], y)
	}
	g.off = g.off[:len(g.off)-1]
	g.x.accumulate()
	g.y.accumulate()
	return g
}

// size cuts a side of the given length into square cells of a grid of
// about cells cells, the other side other long, and takes lo and hi from
// buf. A side of zero or infinite length is one cell.
func (a *gridAxis) size(v0, length, other float64, cells int, buf []float64) {
	a.v0, a.n = v0, 1
	if length > 0 && length < math.Inf(1) {
		a.n = int(min(float64(cells), max(1, math.Sqrt(float64(cells)*(length/other)))))
	}
	a.inv = float64(a.n) / length // +Inf on a zero length, whose one cell clamps
	a.lo, a.hi = buf[:a.n], buf[a.n:2*a.n]
	for i := range a.lo {
		a.lo[i], a.hi[i] = math.Inf(1), math.Inf(-1)
	}
}

// accumulate turns per-cell minima and maxima into lo's suffix minima and
// hi's prefix maxima.
func (a *gridAxis) accumulate() {
	for i := a.n - 2; i >= 0; i-- {
		a.lo[i] = min(a.lo[i], a.lo[i+1])
	}
	for i := 1; i < a.n; i++ {
		a.hi[i] = max(a.hi[i], a.hi[i-1])
	}
}

// cell is v's cell, clamped into the axis; it is monotone in v.
func (a *gridAxis) cell(v float64) int {
	switch f := (v - a.v0) * a.inv; {
	case !(f >= 0):
		return 0
	case f >= float64(a.n):
		return a.n - 1
	default:
		return int(f)
	}
}

// gap is how far v lies outside the range of all points, 0 inside it.
func (a *gridAxis) gap(v float64) float64 { return max(a.lo[0]-v, v-a.hi[a.n-1], 0) }

// beyond is a lower bound on the squared distance from a query at v to the
// points in cells below c−r or above c+r, d bounding their distance along
// the other axis; +Inf when there are none.
func (a *gridAxis) beyond(v float64, c, r int, d float64) float64 {
	bound := math.Inf(1)
	if c-r > 0 {
		bound = sumSq(max(v-a.hi[c-r-1], 0), d)
	}
	if c+r+1 < a.n {
		bound = min(bound, sumSq(max(a.lo[c+r+1]-v, 0), d))
	}
	return bound
}

// sumSq is dx² + dy², each square rounded on its own as the kernel rounds
// it: no more than the distance the kernel computes from gaps no larger.
func sumSq(dx, dy float64) float64 { return float64(dx*dx) + float64(dy*dy) }

// minDistSq returns the least squared distance from q to the grid's points,
// equal to kernel.MinDistSq over all of them.
func (g *nearestGrid) minDistSq(q geom.Point) float64 {
	ci, cj := g.x.cell(q.X), g.y.cell(q.Y)
	best := math.Inf(1)
	span := func(i0, i1, j int) {
		lo, hi := int(g.off[i0+j*g.x.n]), int(g.off[i1+j*g.x.n+1])
		if d := kernel.MinDistSqSpan(g.xs, g.ys, lo, hi-lo, q.X, q.Y); d < best {
			best = d
		}
	}
	// Ring r is scanned while the points beyond ring r−1 — all of them,
	// for r = 0 — may hold a closer one.
	for r := 0; g.beyond(q, ci, cj, r-1) < best; r++ {
		for j := max(cj-r, 0); j <= min(cj+r, g.y.n-1); j++ {
			switch {
			case j == cj-r || j == cj+r:
				span(max(ci-r, 0), min(ci+r, g.x.n-1), j) // the ring's whole row
			default:
				if ci-r >= 0 {
					span(ci-r, ci-r, j)
				}
				if ci+r < g.x.n {
					span(ci+r, ci+r, j)
				}
			}
		}
	}
	return best
}

// beyond is a lower bound on the squared distance the kernel computes from
// q to every point more than r rings from cell (ci, cj): such a point lies
// in a column or a row beyond the rings.
func (g *nearestGrid) beyond(q geom.Point, ci, cj, r int) float64 {
	return min(g.x.beyond(q.X, ci, r, g.y.gap(q.Y)), g.y.beyond(q.Y, cj, r, g.x.gap(q.X)))
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
