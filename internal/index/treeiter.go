package index

import (
	"repro/internal/geom"
)

// TreeNode is the traversal interface a hierarchical index (the quadtree)
// implements to obtain incremental MINDIST/MAXDIST orderings
// through best-first search: only the subtrees near the query point are
// expanded, so a query that stops early touches O(popped · log) nodes
// instead of every block.
//
// Implementations should be pointer types (or fit in one machine word):
// nodes are stored in interface values on the traversal heap, and a node
// wider than a word would be boxed — one heap allocation per push — on the
// hottest path of every query.
type TreeNode interface {
	// NodeBounds returns the region the subtree is responsible for.
	NodeBounds() geom.Rect

	// NodeBlock returns the node's block when the node is a leaf, nil
	// otherwise.
	NodeBlock() *Block

	// NodeChildren appends the node's children to dst and returns it;
	// called only on internal nodes.
	NodeChildren(dst []TreeNode) []TreeNode
}

// NewTreeMinDistIter returns blocks in increasing MINDIST order from p by
// best-first traversal from root. The order (including ties, broken by
// block ID) is identical to the eager scan's.
func NewTreeMinDistIter(root TreeNode, p geom.Point) BlockIter {
	return newTreeIter(root, p, geom.Rect.MinDistSq)
}

// NewTreeMaxDistIter returns blocks in increasing MAXDIST order from p.
// Internal nodes are prioritized by their MINDIST — a valid lower bound on
// every descendant's MAXDIST — so expansion is safe; leaves carry their
// exact MAXDIST keys.
func NewTreeMaxDistIter(root TreeNode, p geom.Point) BlockIter {
	return newTreeIter(root, p, geom.Rect.MaxDistSq)
}

type treeIter struct {
	root    TreeNode
	p       geom.Point
	leafKey func(geom.Rect, geom.Point) float64
	h       MinHeap[treeEntry]
	scratch []TreeNode
}

func newTreeIter(root TreeNode, p geom.Point, leafKey func(geom.Rect, geom.Point) float64) *treeIter {
	it := &treeIter{root: root, leafKey: leafKey}
	it.Reset(p)
	return it
}

// Reset re-aims the iterator at a new query point, reusing the heap and
// child-scratch backing arrays. Implements ReusableIter.
func (it *treeIter) Reset(p geom.Point) {
	it.p = p
	it.h = it.h[:0]
	it.push(it.root)
}

func (it *treeIter) push(n TreeNode) {
	if b := n.NodeBlock(); b != nil {
		it.h.Push(treeEntry{key: it.leafKey(b.Bounds, it.p), block: b})
		return
	}
	// Internal node: MINDIST lower-bounds both the MINDIST and the MAXDIST
	// of every descendant block.
	it.h.Push(treeEntry{key: n.NodeBounds().MinDistSq(it.p), node: n})
}

// Next implements BlockIter.
func (it *treeIter) Next() (*Block, float64, bool) {
	for len(it.h) > 0 {
		e := it.h.Pop()
		if e.block != nil {
			return e.block, e.key, true
		}
		it.scratch = e.node.NodeChildren(it.scratch[:0])
		for _, c := range it.scratch {
			it.push(c)
		}
	}
	return nil, 0, false
}

// treeEntry is a heap element: an undiscovered subtree or a ready block.
type treeEntry struct {
	key   float64
	node  TreeNode // internal node, or
	block *Block   // leaf block
}

// LessThan orders by key; on ties, internal nodes come before blocks (they
// may hide equal-key blocks with smaller IDs), and blocks order by ID so
// the yield order matches the eager scan exactly. Implements HeapOrdered.
func (e treeEntry) LessThan(o treeEntry) bool {
	if e.key != o.key {
		return e.key < o.key
	}
	ne, no := e.block == nil, o.block == nil
	if ne != no {
		return ne // node before block
	}
	if !ne {
		return e.block.ID < o.block.ID
	}
	return false
}
