// Package overlay layers a mutable write path over an immutable base index.
//
// A Store accumulates mutations against a base index built once over a
// relation-wide SoA PointStore: inserts append to a columnar delta store,
// removals tombstone stable IDs. From that bookkeeping, Snapshot builds an
// immutable index.Index whose blocks are
//
//   - the base index's blocks, untouched where no tombstone landed,
//   - compacted private-store replacements (same block ID, same bounds) for
//     base blocks that lost points — tombstone filtering at block
//     granularity, so scans never test per-point liveness, and
//   - fixed-capacity chunk spans over the delta store, themselves replaced
//     by compacted private blocks when a delta point dies.
//
// Every block is a flat (store, off, n) span, so the batched distance
// kernels run unchanged over mutated relations. Snapshots freeze the delta
// store with PointStore.View, making them immutable values that later
// mutations cannot race with; the caller swaps them in RCU-style and is
// responsible for serializing mutations (a Store is not goroutine-safe).
//
// When the overlay fraction grows past the caller's threshold, LiveStore
// rebuilds the live point set — stable IDs preserved — as a fresh
// block-contiguous store for a from-scratch index build, after which the
// overlay is discarded.
package overlay

import (
	"repro/internal/geom"
	"repro/internal/index"
)

// Store is the mutation bookkeeping over one immutable base index. Not
// goroutine-safe: the owning relation serializes writers and publishes
// Snapshot results atomically.
type Store struct {
	base      index.Index
	baseStore *geom.PointStore
	chunk     int // delta chunk capacity (block size of delta spans)

	// Base-side state: position lookup and tombstones.
	posOfID    map[int32]int32 // stable ID -> base store position
	blockOfPos []int32         // base store position -> owning block ID
	tomb       map[int32]bool  // tombstoned base IDs
	patched    map[int]*index.Block
	baseDead   int

	// Delta-side state: append-only columnar store plus liveness.
	delta     *geom.PointStore
	deltaDead []bool
	deltaByID map[int32]int // live delta ID -> delta position
	deltaLive int
	chunkDead []int // per-chunk dead counts
	deltaMBR  geom.Rect
}

// NewStore returns a Store over base, whose blocks must be spans of a
// relation-wide PointStore (index.Storer — true for both static index
// kinds). chunk is the delta block capacity; values < 1 become 1.
func NewStore(base index.Index, chunk int) *Store {
	st := index.StoreOf(base)
	if st == nil {
		panic("overlay: base index does not expose a relation-wide store")
	}
	if chunk < 1 {
		chunk = 1
	}
	s := &Store{
		base:       base,
		baseStore:  st,
		chunk:      chunk,
		posOfID:    make(map[int32]int32, st.Len()),
		blockOfPos: make([]int32, st.Len()),
		tomb:       make(map[int32]bool),
		patched:    make(map[int]*index.Block),
		delta:      geom.NewPointStore(chunk),
		deltaByID:  make(map[int32]int),
	}
	for i, id := range st.IDs {
		s.posOfID[id] = int32(i)
	}
	for _, b := range base.Blocks() {
		off, n := b.Span()
		for i := off; i < off+n; i++ {
			s.blockOfPos[i] = int32(b.ID)
		}
	}
	return s
}

// Insert appends p to the delta store under the stable ID id. The caller
// guarantees id is not currently live (the relation layer assigns fresh IDs
// on Insert and removes first on Update).
func (s *Store) Insert(p geom.Point, id int32) {
	pos := s.delta.Len()
	s.delta.AppendWithID(p, id)
	s.deltaDead = append(s.deltaDead, false)
	if pos%s.chunk == 0 {
		s.chunkDead = append(s.chunkDead, 0)
	}
	s.deltaByID[id] = pos
	s.deltaLive++
	if s.delta.Len() == 1 {
		s.deltaMBR = geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
	} else {
		s.deltaMBR = s.deltaMBR.ExpandPoint(p)
	}
}

// Remove tombstones the live point with stable ID id, reporting whether it
// existed. The delta store is checked first: a reinserted ID's live
// incarnation lives there even when the base still holds its tombstoned
// predecessor.
func (s *Store) Remove(id int32) bool {
	if pos, ok := s.deltaByID[id]; ok {
		s.deltaDead[pos] = true
		delete(s.deltaByID, id)
		s.deltaLive--
		s.chunkDead[pos/s.chunk]++
		return true
	}
	if pos, ok := s.posOfID[id]; ok && !s.tomb[id] {
		s.tomb[id] = true
		s.baseDead++
		s.rebuildPatched(int(s.blockOfPos[pos]))
		return true
	}
	return false
}

// rebuildPatched replaces base block blockID with a compacted private-store
// block holding only its live points, under the same block ID and bounds.
func (s *Store) rebuildPatched(blockID int) {
	orig := s.base.Blocks()[blockID]
	off, n := orig.Span()
	priv := geom.NewPointStore(n - 1)
	for i := off; i < off+n; i++ {
		if id := s.baseStore.ID(i); !s.tomb[id] {
			priv.AppendWithID(s.baseStore.At(i), id)
		}
	}
	s.patched[blockID] = index.NewBlock(blockID, orig.Bounds, priv, 0, priv.Len())
}

// Lookup returns the live point with stable ID id.
func (s *Store) Lookup(id int32) (geom.Point, bool) {
	if pos, ok := s.deltaByID[id]; ok {
		return s.delta.At(pos), true
	}
	if pos, ok := s.posOfID[id]; ok && !s.tomb[id] {
		return s.baseStore.At(int(pos)), true
	}
	return geom.Point{}, false
}

// Len returns the live point count (base minus tombstones plus live delta).
func (s *Store) Len() int { return s.base.Len() - s.baseDead + s.deltaLive }

// DeltaLive returns the number of live points resident in the delta store.
func (s *Store) DeltaLive() int { return s.deltaLive }

// Tombstones returns the number of dead points still resident in the
// overlay: tombstoned base points plus dead delta points.
func (s *Store) Tombstones() int { return s.baseDead + (s.delta.Len() - s.deltaLive) }

// Mutated reports whether any mutation has landed since the base was built.
func (s *Store) Mutated() bool { return s.baseDead > 0 || s.delta.Len() > 0 }

// Fraction returns the overlay residency: every point the overlay carries
// beyond the base build (delta entries, live or dead, plus base tombstones)
// over the total resident points. The relation compares it against the
// compaction threshold.
func (s *Store) Fraction() float64 {
	work := s.delta.Len() + s.baseDead
	total := s.base.Len() + s.delta.Len()
	if total == 0 {
		return 0
	}
	return float64(work) / float64(total)
}

// LiveStore materializes the live point set — base scan order first, then
// delta order, stable IDs preserved — as a fresh block-contiguous store for
// a from-scratch index rebuild (compaction).
func (s *Store) LiveStore() *geom.PointStore {
	out := geom.NewPointStore(s.Len())
	for _, b := range s.base.Blocks() {
		off, n := b.Span()
		for i := off; i < off+n; i++ {
			if id := s.baseStore.ID(i); !s.tomb[id] {
				out.AppendWithID(s.baseStore.At(i), id)
			}
		}
	}
	for i := 0; i < s.delta.Len(); i++ {
		if !s.deltaDead[i] {
			out.AppendWithID(s.delta.At(i), s.delta.ID(i))
		}
	}
	return out
}

// Snapshot builds an immutable index over the current live set. With no
// mutations it returns the base index itself (preserving its Storer fast
// paths); otherwise it returns an *Index whose blocks substitute patched
// base blocks in place and append delta chunk spans over a frozen view of
// the delta store.
func (s *Store) Snapshot() index.Index {
	if !s.Mutated() {
		return s.base
	}
	baseBlocks := s.base.Blocks()
	nBase := len(baseBlocks)
	deltaLen := s.delta.Len()
	nChunks := (deltaLen + s.chunk - 1) / s.chunk
	blocks := make([]*index.Block, nBase+nChunks)
	copy(blocks, baseBlocks)

	var patched map[int]*index.Block
	if len(s.patched) > 0 {
		patched = make(map[int]*index.Block, len(s.patched))
		for id, b := range s.patched {
			patched[id] = b
			blocks[id] = b
		}
	}

	// Chunk blocks span a frozen view so later appends to the shared delta
	// store cannot race with readers of this snapshot.
	frozen := s.delta.View(deltaLen)
	for c := 0; c < nChunks; c++ {
		off := c * s.chunk
		n := min(s.chunk, deltaLen-off)
		id := nBase + c
		// Bounds cover the whole chunk span, dead points included — a
		// block's bounds may exceed its live points' box, and this keeps
		// every chunk's rectangle well-defined even when fully dead.
		bounds := frozen.MBR(off, n)
		if s.chunkDead[c] == 0 {
			blocks[id] = index.NewBlock(id, bounds, frozen, off, n)
		} else {
			priv := geom.NewPointStore(n - s.chunkDead[c])
			for i := off; i < off+n; i++ {
				if !s.deltaDead[i] {
					priv.AppendWithID(frozen.At(i), frozen.ID(i))
				}
			}
			blocks[id] = index.NewBlock(id, bounds, priv, 0, priv.Len())
		}
	}

	bounds := s.base.Bounds()
	if deltaLen > 0 {
		bounds = bounds.Union(s.deltaMBR)
	}
	return &Index{
		base:    s.base,
		blocks:  blocks,
		nBase:   nBase,
		patched: patched,
		n:       s.Len(),
		bounds:  bounds,
	}
}

// Index is one immutable overlay snapshot: base blocks (with patched
// substitutions) plus delta chunk blocks. It implements index.Index and
// index.IncrementalScanner; it deliberately does not implement index.Storer
// — points live in more than one store, so consumers fall back to the
// generic block walk.
type Index struct {
	base    index.Index
	blocks  []*index.Block
	nBase   int
	patched map[int]*index.Block // base block ID -> substitute, nil when none
	n       int
	bounds  geom.Rect
}

// Blocks implements index.Index; Blocks()[b.ID] == b holds by construction.
func (ix *Index) Blocks() []*index.Block { return ix.blocks }

// Len implements index.Index (live point count).
func (ix *Index) Len() int { return ix.n }

// Bounds implements index.Index.
func (ix *Index) Bounds() geom.Rect { return ix.bounds }

// sideBlocks returns the blocks the base index's own iterators do not
// yield: patched substitutes plus delta chunks.
func (ix *Index) sideBlocks() []*index.Block {
	if ix.patched == nil {
		return ix.blocks[ix.nBase:]
	}
	side := make([]*index.Block, 0, len(ix.patched)+len(ix.blocks)-ix.nBase)
	for _, b := range ix.patched {
		side = append(side, b)
	}
	return append(side, ix.blocks[ix.nBase:]...)
}

// NewMinDistIter implements index.IncrementalScanner by merging the base
// index's incremental MINDIST enumeration (skipping substituted blocks)
// with an eager scan over the side blocks.
func (ix *Index) NewMinDistIter(p geom.Point) index.BlockIter {
	return newMergeIter(ix, p, false)
}

// NewMaxDistIter implements index.IncrementalScanner for MAXDIST order.
func (ix *Index) NewMaxDistIter(p geom.Point) index.BlockIter {
	return newMergeIter(ix, p, true)
}

// mergeIter merges two MINDIST- (or MAXDIST-) ordered block streams — the
// base index's iterator and an eager scan over side blocks — under the
// global (key, block ID) order, dropping base blocks that were substituted.
// It is reusable, so pooled per-searcher iteration stays allocation-free.
type mergeIter struct {
	ix   *Index
	maxd bool

	base index.BlockIter
	side *index.Scan

	bb        *index.Block // pending base head
	bk        float64
	bok       bool
	sb        *index.Block // pending side head
	sk        float64
	sok       bool
	baseReuse index.ReusableIter
}

func newMergeIter(ix *Index, p geom.Point, maxd bool) *mergeIter {
	m := &mergeIter{ix: ix, maxd: maxd}
	side := ix.sideBlocks()
	if maxd {
		m.base = index.MaxDistOrder(ix.base, p)
		m.side = index.NewMaxDistScan(side, p)
	} else {
		m.base = index.MinDistOrder(ix.base, p)
		m.side = index.NewMinDistScan(side, p)
	}
	m.baseReuse, _ = m.base.(index.ReusableIter)
	m.fill()
	return m
}

// Reset implements index.ReusableIter.
func (m *mergeIter) Reset(p geom.Point) {
	if m.baseReuse != nil {
		m.baseReuse.Reset(p)
	} else if m.maxd {
		m.base = index.MaxDistOrder(m.ix.base, p)
	} else {
		m.base = index.MinDistOrder(m.ix.base, p)
	}
	m.side.Reset(p)
	m.bok, m.sok = false, false
	m.fill()
}

// fill primes both stream heads, skipping substituted base blocks.
func (m *mergeIter) fill() {
	for !m.bok {
		b, k, ok := m.base.Next()
		if !ok {
			break
		}
		if m.ix.patched != nil {
			if _, sub := m.ix.patched[b.ID]; sub {
				continue
			}
		}
		m.bb, m.bk, m.bok = b, k, true
	}
	if !m.sok {
		if b, k, ok := m.side.Next(); ok {
			m.sb, m.sk, m.sok = b, k, true
		}
	}
}

// Next implements index.BlockIter.
func (m *mergeIter) Next() (*index.Block, float64, bool) {
	if !m.bok && !m.sok {
		return nil, 0, false
	}
	var b *index.Block
	var k float64
	takeBase := m.bok && (!m.sok || m.bk < m.sk || (m.bk == m.sk && m.bb.ID < m.sb.ID))
	if takeBase {
		b, k = m.bb, m.bk
		m.bok = false
	} else {
		b, k = m.sb, m.sk
		m.sok = false
	}
	m.fill()
	return b, k, true
}

var (
	_ index.Index              = (*Index)(nil)
	_ index.IncrementalScanner = (*Index)(nil)
	_ index.ReusableIter       = (*mergeIter)(nil)
)
