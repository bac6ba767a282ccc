// Package index defines the spatial-index contract shared by every query
// algorithm in this repository, together with the MINDIST and MAXDIST block
// orderings the algorithms traverse.
//
// The algorithms of the paper are index-agnostic (its Section 2): they only
// require that the data be partitioned into blocks, that each block know how
// many points it holds, and that blocks can be enumerated in increasing
// MINDIST or MAXDIST order from an arbitrary point. Package index captures
// exactly that contract; the grid and quadtree subpackages provide concrete
// partitions.
//
// Storage is columnar: an index permutes its input into block-contiguous
// order inside one relation-wide geom.PointStore at build time, and each
// Block is a (offset, length) span into that store. Hot distance loops scan
// the store's flat X/Y arrays through Block.XYs; Block.Points / PointAt /
// AppendPoints remain for cold callers that want geom.Point values.
package index

import (
	"fmt"
	"iter"

	"repro/internal/geom"
	"repro/internal/kernel"
)

// Block is a leaf region of a spatial index: a rectangle of space together
// with a span of the index's point store holding the data points that fall
// inside it. Blocks of one index never share points; every data point
// belongs to exactly one block.
//
// Blocks are created by index constructors and are immutable: mutable
// relations publish new blocks over new spans (see the overlay subpackage)
// instead of changing existing ones.
type Block struct {
	// ID is the position of the block in its index's Blocks() slice. It is
	// used by algorithms to attach per-block state (marks, counts) in flat
	// slices instead of maps.
	ID int

	// Bounds is the region of space the block is responsible for. All points
	// of the block lie inside Bounds, but Bounds may be larger than the
	// bounding box of the points (a grid cell, for example).
	Bounds geom.Rect

	// store holds the block's points as the span [off, off+n): the
	// relation-wide store for an index's own blocks, the frozen delta view or
	// a private compacted copy for an overlay's.
	store *geom.PointStore
	off   int
	n     int
}

// NewBlock returns a block spanning [off, off+n) of store.
func NewBlock(id int, bounds geom.Rect, store *geom.PointStore, off, n int) *Block {
	return &Block{ID: id, Bounds: bounds, store: store, off: off, n: n}
}

// Count returns the number of points stored in the block. The paper assumes
// the index maintains this count per block; here it is the span length.
func (b *Block) Count() int { return b.n }

// Span returns the block's (offset, length) span into its store.
func (b *Block) Span() (off, n int) { return b.off, b.n }

// Store returns the point store the block's span refers to.
func (b *Block) Store() *geom.PointStore { return b.store }

// XYs returns the block's coordinate columns — the flat, parallel X and Y
// slices every hot distance loop scans. The slices alias the store and must
// not be modified.
func (b *Block) XYs() (xs, ys []float64) {
	return b.store.Xs[b.off : b.off+b.n], b.store.Ys[b.off : b.off+b.n]
}

// PointIDs returns the stable IDs of the block's points, parallel to XYs.
// The slice aliases the store and must not be modified.
func (b *Block) PointIDs() []int32 { return b.store.IDs[b.off : b.off+b.n] }

// PointAt returns the i-th point of the block as a geom.Point value — the
// compatibility accessor for cold callers and tests.
func (b *Block) PointAt(i int) geom.Point {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("index: PointAt(%d) out of range on a block of %d points", i, b.n))
	}
	return b.store.At(b.off + i)
}

// AppendPoints appends the block's points to dst in storage order and
// returns it — the copy-out accessor for cold callers that need a
// []geom.Point.
func (b *Block) AppendPoints(dst []geom.Point) []geom.Point {
	return b.store.AppendRange(dst, b.off, b.n)
}

// Points iterates the block's points in storage order as geom.Point values
// (range-over-func). Hot loops scan XYs directly instead.
func (b *Block) Points() iter.Seq[geom.Point] {
	return func(yield func(geom.Point) bool) {
		xs, ys := b.XYs()
		for i := range xs {
			if !yield(geom.Point{X: xs[i], Y: ys[i]}) {
				return
			}
		}
	}
}

// The three span-kernel accessors below call package kernel directly with
// the block's raw columns rather than slicing them first: the flattened
// call sites stay under the compiler's inlining budget, so per-block
// dispatch is a single call frame — measurable on 16-point grid cells.

// CountWithinSq counts the block's points within squared distance dSq of p
// — the radius-filter primitive, served by the batched kernel layer.
func (b *Block) CountWithinSq(p geom.Point, dSq float64) int {
	return kernel.CountWithinSpan(b.store.Xs, b.store.Ys, b.off, b.n, p.X, p.Y, dSq)
}

// DistSqInto writes the squared distance from p to every point of the block
// into out[:Count()] through the batched kernel layer — the span → scratch
// feed of the locality searcher's selection heap. out must hold at least
// Count() elements.
func (b *Block) DistSqInto(p geom.Point, out []float64) {
	kernel.DistSqSpan(b.store.Xs, b.store.Ys, b.off, b.n, p.X, p.Y, out)
}

// SelectWithinSq writes the block-relative indices of points within squared
// distance dSq of p into idx (ascending) and returns how many qualified —
// the compress-store kernel bounded scans use once a running bound is
// known. idx must hold at least Count() elements.
func (b *Block) SelectWithinSq(p geom.Point, dSq float64, idx []int32) int {
	return kernel.SelectWithinSpan(b.store.Xs, b.store.Ys, b.off, b.n, p.X, p.Y, dSq, idx)
}

// Center returns the center of the block's region. The Block-Marking
// algorithm computes neighborhoods of block centers (Theorem 1 of the paper
// shows the center minimizes the search threshold).
func (b *Block) Center() geom.Point { return b.Bounds.Center() }

// Diagonal returns the diagonal length of the block's region.
func (b *Block) Diagonal() float64 { return b.Bounds.Diagonal() }

// String implements fmt.Stringer.
func (b *Block) String() string {
	return fmt.Sprintf("block#%d %v (%d pts)", b.ID, b.Bounds, b.n)
}

// Index is a static partition of a point set into blocks. Implementations
// are built once over a snapshot of points and are immutable afterwards,
// matching the paper's snapshot-query setting.
type Index interface {
	// Blocks returns all leaf blocks. The slice is owned by the index and
	// must not be modified. Block b satisfies Blocks()[b.ID] == b.
	Blocks() []*Block

	// Locate returns the block whose region contains p, or nil if p lies
	// outside the indexed space. For points of the indexed set, Locate
	// always returns the block that stores the point.
	Locate(p geom.Point) *Block

	// Len returns the total number of indexed points.
	Len() int

	// Bounds returns the region covered by the index (the union of all
	// block regions).
	Bounds() geom.Rect
}

// Storer is implemented by indexes whose blocks are spans over one
// relation-wide PointStore in block-contiguous order. Both index families
// implement it; an overlay snapshot, whose blocks span the base store, the
// delta store and patched copies, does not.
type Storer interface {
	// Store returns the relation-wide point store. Position i of the store
	// is the i-th point in block-ID-then-storage scan order, and IDs[i] is
	// that point's stable identity.
	Store() *geom.PointStore
}

// StoreOf returns the relation-wide store of ix, or nil when ix does not
// keep one.
func StoreOf(ix Index) *geom.PointStore {
	if s, ok := ix.(Storer); ok {
		return s.Store()
	}
	return nil
}

// TotalCount returns the sum of point counts over blocks; used by
// conformance tests to check that indexes neither drop nor duplicate points.
func TotalCount(ix Index) int {
	n := 0
	for _, b := range ix.Blocks() {
		n += b.Count()
	}
	return n
}
