// Package quadtree implements a PR (point-region) quadtree index: space is
// recursively partitioned into four quadrants until each leaf holds at most
// a configured number of points. The paper's Section 2 names quadtree
// variants as one of the index families its algorithms run on unmodified;
// this package exists to substantiate that index-agnosticism claim in tests
// and benchmarks.
//
// Leaves are created in depth-first order and appended, points and stable
// IDs together, to one relation-wide geom.PointStore, so every leaf block is
// a contiguous span and the store as a whole is in block-ID order.
package quadtree

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/index"
)

// Tree is a PR quadtree over a static point set. Only its leaves carry
// points; leaves are exposed as index blocks.
type Tree struct {
	root   *node
	bounds geom.Rect
	blocks []*index.Block
	store  *geom.PointStore
	n      int
}

var (
	_ index.Index  = (*Tree)(nil)
	_ index.Storer = (*Tree)(nil)
)

type node struct {
	bounds   geom.Rect
	children [4]*node     // nil for a leaf
	block    *index.Block // non-nil for a leaf
}

func (nd *node) isLeaf() bool { return nd.children[0] == nil }

// Options configure quadtree construction.
type Options struct {
	// LeafCapacity is the maximum number of points per leaf before a split;
	// defaults to 64.
	LeafCapacity int

	// MaxDepth bounds the number of tree levels (Depth() never exceeds
	// it) so duplicate-heavy inputs terminate; defaults to 24.
	MaxDepth int

	// Bounds forces the indexed region; when zero the (inflated) bounding
	// box of the points is used.
	Bounds geom.Rect
}

// buildPoint carries one point with its stable ID through the recursive
// partition; the result lands in SoA form in the tree's store.
type buildPoint struct {
	p  geom.Point
	id int32
}

// New builds a quadtree over pts, assigning stable point IDs 0..len-1 in
// input order.
func New(pts []geom.Point, opt Options) (*Tree, error) {
	return NewFromStore(geom.StoreFromPoints(pts), opt)
}

// NewFromStore builds a quadtree over the points of st, preserving the
// store's IDs. The input store is not modified; the tree owns a
// block-contiguous permutation of it.
func NewFromStore(st *geom.PointStore, opt Options) (*Tree, error) {
	if opt.LeafCapacity <= 0 {
		opt.LeafCapacity = 64
	}
	if opt.MaxDepth <= 0 {
		opt.MaxDepth = 24
	}
	bounds := opt.Bounds
	if bounds == (geom.Rect{}) {
		if st.Len() == 0 {
			return nil, fmt.Errorf("quadtree: empty point set and no explicit bounds")
		}
		bounds = inflate(st.MBR(0, st.Len()))
	}
	owned := make([]buildPoint, st.Len())
	for i := range owned {
		p := st.At(i)
		if !bounds.Contains(p) {
			return nil, fmt.Errorf("quadtree: point %v outside explicit bounds %v", p, bounds)
		}
		owned[i] = buildPoint{p: p, id: st.ID(i)}
	}
	t := &Tree{bounds: bounds, n: st.Len(), store: geom.NewPointStore(st.Len())}
	t.root = t.build(bounds, owned, opt, 0)
	return t, nil
}

func (t *Tree) build(bounds geom.Rect, pts []buildPoint, opt Options, depth int) *node {
	nd := &node{bounds: bounds}
	if len(pts) <= opt.LeafCapacity || depth >= opt.MaxDepth-1 {
		nd.block = t.appendLeaf(bounds, pts)
		return nd
	}
	cx := (bounds.MinX + bounds.MaxX) / 2
	cy := (bounds.MinY + bounds.MaxY) / 2
	quads := [4]geom.Rect{
		{MinX: bounds.MinX, MinY: bounds.MinY, MaxX: cx, MaxY: cy}, // SW
		{MinX: cx, MinY: bounds.MinY, MaxX: bounds.MaxX, MaxY: cy}, // SE
		{MinX: bounds.MinX, MinY: cy, MaxX: cx, MaxY: bounds.MaxY}, // NW
		{MinX: cx, MinY: cy, MaxX: bounds.MaxX, MaxY: bounds.MaxY}, // NE
	}
	var parts [4][]buildPoint
	for _, bp := range pts {
		q := quadrant(bp.p, cx, cy)
		parts[q] = append(parts[q], bp)
	}
	for i := range quads {
		nd.children[i] = t.build(quads[i], parts[i], opt, depth+1)
	}
	return nd
}

// appendLeaf writes a leaf's points to the store as the next contiguous
// span and creates its block.
func (t *Tree) appendLeaf(bounds geom.Rect, pts []buildPoint) *index.Block {
	off := t.store.Len()
	for _, bp := range pts {
		t.store.AppendWithID(bp.p, bp.id)
	}
	b := index.NewBlock(len(t.blocks), bounds, t.store, off, len(pts))
	t.blocks = append(t.blocks, b)
	return b
}

// quadrant assigns a point to one of the four child quadrants. Points on the
// split lines go to the higher-coordinate quadrant.
func quadrant(p geom.Point, cx, cy float64) int {
	q := 0
	if p.X >= cx {
		q |= 1
	}
	if p.Y >= cy {
		q |= 2
	}
	return q
}

// Blocks implements index.Index.
func (t *Tree) Blocks() []*index.Block { return t.blocks }

// Len implements index.Index.
func (t *Tree) Len() int { return t.n }

// Bounds implements index.Index.
func (t *Tree) Bounds() geom.Rect { return t.bounds }

// Store implements index.Storer: the relation-wide store holding the leaves
// as contiguous spans in depth-first (block-ID) order.
func (t *Tree) Store() *geom.PointStore { return t.store }

// Depth returns the height of the tree (a single leaf has depth 1).
func (t *Tree) Depth() int { return depth(t.root) }

func depth(nd *node) int {
	if nd.isLeaf() {
		return 1
	}
	d := 0
	for _, c := range nd.children {
		if cd := depth(c); cd > d {
			d = cd
		}
	}
	return d + 1
}

func inflate(r geom.Rect) geom.Rect {
	const rel = 1e-9
	w, h := r.Width(), r.Height()
	padX := w*rel + 1e-9
	padY := h*rel + 1e-9
	if w == 0 {
		padX = 0.5
	}
	if h == 0 {
		padY = 0.5
	}
	return geom.Rect{MinX: r.MinX - padX, MinY: r.MinY - padY, MaxX: r.MaxX + padX, MaxY: r.MaxY + padY}
}

// TilesSpace reports that quadtree leaves tile the indexed region exactly.
// This enables the contour early-stop in Block-Marking preprocessing.
func (t *Tree) TilesSpace() bool { return true }

// NodeBounds implements index.TreeNode.
func (nd *node) NodeBounds() geom.Rect { return nd.bounds }

// NodeBlock implements index.TreeNode.
func (nd *node) NodeBlock() *index.Block { return nd.block }

// NodeChildren implements index.TreeNode.
func (nd *node) NodeChildren(dst []index.TreeNode) []index.TreeNode {
	for _, c := range nd.children {
		dst = append(dst, c)
	}
	return dst
}

// NewMinDistIter implements index.IncrementalScanner through best-first
// tree traversal.
func (t *Tree) NewMinDistIter(p geom.Point) index.BlockIter {
	return index.NewTreeMinDistIter(t.root, p)
}

// NewMaxDistIter implements index.IncrementalScanner.
func (t *Tree) NewMaxDistIter(p geom.Point) index.BlockIter {
	return index.NewTreeMaxDistIter(t.root, p)
}

var _ index.IncrementalScanner = (*Tree)(nil)
