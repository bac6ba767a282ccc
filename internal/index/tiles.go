package index

// SpaceTiler is an optional interface an Index may implement to declare
// whether its blocks tile the indexed region (every point of Bounds() lies
// in exactly one block region). Grids and quadtrees tile space; an overlay
// snapshot with pending writes does not, because its delta blocks overlap
// the base blocks.
//
// The distinction matters for one optimization only: the contour early-stop
// in the Block-Marking preprocessing assumes that any segment from a far
// point toward the focal point crosses scanned blocks; that assumption needs
// a tiling partition. Non-tiling indexes use exhaustive preprocessing, which
// is still correct and still prunes the join itself.
type SpaceTiler interface {
	TilesSpace() bool
}

// TilesSpace reports whether ix declares a space-tiling block partition.
// Indexes that do not implement SpaceTiler are conservatively assumed to
// tile space only if they do not implement the interface at all — callers
// that require tiling should treat "unknown" as false; this helper does, by
// returning false for indexes that neither tile nor declare.
func TilesSpace(ix Index) bool {
	if st, ok := ix.(SpaceTiler); ok {
		return st.TilesSpace()
	}
	return false
}
