// Package core implements the query-processing algorithms of the paper
// "Spatial Queries with Two kNN Predicates" (Aly, Aref, Ouzzani; VLDB 2012):
//
//   - Section 3: kNN-select on the inner relation of a kNN-join — the
//     conceptually correct plan, the Counting algorithm (Procedure 1) and
//     the Block-Marking algorithm (Procedures 2–3), plus the valid
//     select-on-outer pushdown;
//   - Section 4.1: two unchained kNN-joins — the conceptually correct
//     intersection plan and the Block-Marking plan of Procedure 4 (the
//     second join as a select-inner-join on the first join's b's), with
//     the join-order heuristic of Section 4.1.2;
//   - Section 4.2: two chained kNN-joins — the three equivalent QEPs
//     (right-deep, join-intersection, nested join) and the neighborhood
//     cache;
//   - Section 5: two kNN-selects — the conceptually correct plan and the
//     2-kNN-select algorithm (Procedure 5);
//   - the paper's footnote-1 extension: a spatial range selection on the
//     inner relation of a kNN-join, optimized with the same machinery.
//
// Deliberately *incorrect* plans from the paper's counter-examples (pushing
// a kNN-select below the inner relation, evaluating one of two unchained
// joins "first", chaining two kNN-selects) are implemented too, under
// Invalid*/Sequential* names: the semantics tests reproduce the paper's
// Figures 1–2, 8–9 and 14–15 by showing these plans change query answers.
//
// All functions are deterministic: neighborhoods use the repository-wide
// (distance, X, Y) tie order, and result slices come out in a canonical
// order after Sort*, so different plans for one query can be compared for
// exact equality.
//
// Each algorithm has exactly one body, here, written against the two things
// it needs instead of against one kind of relation (operand.go): an outer
// Operand that is scanned unit by unit and an inner one whose workers each
// hold a Probe. A *Relation is both, probing as the per-point loop on its own
// searcher; internal/shard makes a shard group — in-process or remote — both
// as well, so no algorithm is coded a second time for another backing, and a
// plan option cannot mean different work on one.
//
// Beyond the paper, the package provides the concurrency layer for serving
// many queries over one shared index: a per-relation SearcherPool of
// query-local handles (pool.go), and the one worker-crew driver every join
// algorithm runs on (parallel.go). A body takes a worker count and fans its
// units out across borrowed probes with per-worker arena buffers; sequential
// execution is that body at workers = 1, and the result — order included —
// does not depend on the count. The sequential-signature names (KNNJoin,
// SelectInnerJoinCounting, ChainedJoins, …) are one-line callers of those
// bodies.
package core

import (
	"sort"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/locality"
)

// Relation is a point set prepared for querying: its spatial index plus a
// reusable neighborhood searcher over that index.
//
// A Relation is immutable after construction but its Searcher holds scratch
// buffers, so one Relation value must not be probed by two goroutines at
// the same time. Concurrent serving goes through the relation's
// SearcherPool instead: Acquire borrows a query-local view (same index,
// private searcher) and Release returns it — see pool.go.
type Relation struct {
	// Ix is the block partition of the relation's points.
	Ix index.Index

	// ixs is Indexes' answer, {Ix}, made once and shared by the handles.
	ixs []index.Index

	// S computes neighborhoods over Ix.
	S *locality.Searcher

	// store is the relation-wide columnar point store Ix permuted its input
	// into (block-contiguous spans, stable IDs); nil when the index keeps no
	// unified store (an overlay snapshot).
	store *geom.PointStore

	// pool recycles per-goroutine query handles over Ix (handles themselves
	// point back at their pool for Release).
	pool *SearcherPool

	// scan holds the iterator of Block-Marking's outer-block scan
	// (markContributingBlocks), apart from S's own; made on first use.
	scan *index.IterPool

	// leased marks a handle as currently out of its pool (set by Acquire,
	// cleared by Release's compare-and-swap); long-lived views like Clones
	// are never leased, which is what makes Release safe to call on
	// anything.
	leased atomic.Bool
}

// NewRelation wraps an index into a Relation with an unbounded searcher
// pool: handles are minted on demand and recycled through a free list that
// keeps up to GOMAXPROCS idle handles across garbage collections.
func NewRelation(ix index.Index) *Relation { return NewRelationBounded(ix, 0) }

// NewRelationBounded is NewRelation with a hard cap on concurrent searcher
// state (maxSearchers ≤ 0: none): at most maxSearchers query handles exist at
// any moment, and
// Acquire blocks (TryAcquire errors) while all are in use. The cap makes
// the memory cost of concurrency explicit — each handle owns iterator
// pools, a selection heap and a result buffer, so total scratch memory is
// proportional to maxSearchers, not to the number of in-flight queries.
func NewRelationBounded(ix index.Index, maxSearchers int) *Relation {
	r := &Relation{Ix: ix, ixs: []index.Index{ix}, S: locality.NewSearcher(ix), store: index.StoreOf(ix)}
	r.pool = newSearcherPool(r, maxSearchers)
	return r
}

// Len returns the relation's cardinality.
func (r *Relation) Len() int { return r.Ix.Len() }

// Checkpoint polls the searcher's cancellation binding (see
// locality.Searcher.Checkpoint): a no-op on unbound handles, a
// fault.Cancel panic once the bound context is done. The join driver calls
// it once per claimed unit, so even units whose emission never probes the
// searcher (empty blocks) observe cancellation at block granularity.
func (r *Relation) Checkpoint() { r.S.Checkpoint() }

// ForEachPoint calls fn for every point of the relation, in block-ID then
// storage order (a deterministic full scan). The scan walks the flat X/Y
// columns of each block's span, so no Point structs are loaded from memory.
func (r *Relation) ForEachPoint(fn func(p geom.Point)) {
	for _, b := range r.Ix.Blocks() {
		xs, ys := b.XYs()
		for i := range xs {
			fn(geom.Point{X: xs[i], Y: ys[i]})
		}
	}
}

// Points returns all points of the relation in scan order. It allocates;
// algorithms iterate with ForEachPoint instead.
func (r *Relation) Points() []geom.Point {
	out := make([]geom.Point, 0, r.Len())
	for _, b := range r.Ix.Blocks() {
		out = b.AppendPoints(out)
	}
	return out
}

// Store returns the relation-wide columnar point store (position i is the
// i-th point in scan order; IDs[i] its stable identity), or nil when the
// index keeps no unified store.
func (r *Relation) Store() *geom.PointStore { return r.store }

// Pair is one result row of a kNN-join: Right is among the k nearest
// neighbors of Left in the inner relation.
type Pair struct {
	Left, Right geom.Point
}

// Triple is one result row of a two-join query over relations A, B, C.
type Triple struct {
	A, B, C geom.Point
}

// SortPairs orders pairs canonically (Left, then Right) in place so result
// sets from different plans compare with reflect.DeepEqual.
func SortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Left != ps[j].Left {
			return ps[i].Left.Less(ps[j].Left)
		}
		return ps[i].Right.Less(ps[j].Right)
	})
}

// SortTriples orders triples canonically (A, B, C) in place.
func SortTriples(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].A != ts[j].A {
			return ts[i].A.Less(ts[j].A)
		}
		if ts[i].B != ts[j].B {
			return ts[i].B.Less(ts[j].B)
		}
		return ts[i].C.Less(ts[j].C)
	})
}

// SortPoints orders points canonically in place.
func SortPoints(ps []geom.Point) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
}
