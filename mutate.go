package twoknn

import (
	"fmt"

	"repro/internal/index/overlay"
)

// This file is the write path of a *Relation: Insert, Remove and Update
// mutate the relation by layering a delta overlay (append-only columnar
// side store + tombstone set, internal/index/overlay) over the immutable
// base index and atomically publishing a fresh snapshot. Queries never
// block on writers: they run against whichever snapshot they loaded at
// entry, and a swapped-out snapshot stays alive until its in-flight
// searchers release it (RCU by garbage collector).
//
// Every mutation batch bumps the relation's epoch, so epoch-keyed result
// caches (internal/qcache, the server's batch cache) invalidate
// automatically. When the overlay fraction crosses the compaction threshold
// the relation merges in the background: the live point set — stable IDs
// preserved — is rebuilt into a block-contiguous store and a from-scratch
// index, and the new snapshot is swapped in. Compaction does not bump the
// epoch: the live set is unchanged, so cached results stay correct.

// defaultCompactThreshold is the overlay fraction (delta entries plus
// tombstones over resident points) past which a mutation triggers a
// background merge.
const defaultCompactThreshold = 0.25

// WithCompactThreshold sets the overlay fraction past which mutations
// trigger a background compaction (merge into a fresh block-contiguous
// index). frac == 0 (the default) means defaultCompactThreshold; a negative
// frac disables automatic compaction — the overlay then grows until an
// explicit Compact call.
func WithCompactThreshold(frac float64) RelationOption {
	return func(c *relationConfig) { c.compactFrac = frac }
}

// DeltaStats describes a relation's mutation state: the current epoch, live
// cardinality, overlay residency (points still in the delta side store,
// tombstones not yet merged away) and lifetime mutation/compaction
// counters. Zero overlay residency means queries run at native indexed
// speed.
type DeltaStats struct {
	Epoch       uint64 `json:"epoch"`
	Live        int    `json:"live"`
	DeltaLive   int    `json:"delta_live"`
	Tombstones  int    `json:"tombstones"`
	Mutations   uint64 `json:"mutations"`
	Compactions uint64 `json:"compactions"`
}

// DeltaStats returns the relation's current mutation state.
func (r *Relation) DeltaStats() DeltaStats {
	d := r.d
	s := r.snapshot()
	return DeltaStats{
		Epoch:       d.epoch.Load(),
		Live:        s.rel.Len(),
		DeltaLive:   s.deltaLive,
		Tombstones:  s.tombstones,
		Mutations:   d.mutations.Load(),
		Compactions: d.compactions.Load(),
	}
}

// Insert adds pts to the relation as one mutation batch and returns their
// freshly assigned stable IDs (contiguous, strictly above every ID the
// relation has ever assigned). The points land in the delta overlay and are
// visible to every query started after Insert returns; the epoch is bumped
// once per batch. Inserting no points is a no-op returning nil.
//
// Insert, Remove, Update and Compact are safe for concurrent use with each
// other and with queries; writers serialize internally.
//
// Insert panics with an error wrapping ErrNonFiniteCoordinate if any point
// has a NaN or infinite coordinate; the relation is then left unchanged.
func (r *Relation) Insert(pts ...Point) []int32 {
	if len(pts) == 0 {
		return nil
	}
	if err := checkFinite(pts); err != nil {
		panic(err)
	}
	d := r.d
	d.mu.Lock()
	d.ensureOverlayLocked()
	ids := make([]int32, len(pts))
	for i, p := range pts {
		id := d.nextID
		d.nextID++
		d.ov.Insert(p, id)
		ids[i] = id
	}
	d.publishLocked()
	frac := d.ov.Fraction()
	d.mu.Unlock()
	r.maybeCompact(frac)
	return ids
}

// Remove deletes the points with the given stable IDs as one mutation
// batch, returning how many of them were live. Unknown and already-removed
// IDs are ignored. A batch that removes nothing publishes nothing and does
// not bump the epoch.
func (r *Relation) Remove(ids ...int32) int {
	d := r.d
	d.mu.Lock()
	d.ensureOverlayLocked()
	removed := 0
	for _, id := range ids {
		if d.ov.Remove(id) {
			removed++
		}
	}
	var frac float64
	if removed > 0 {
		d.publishLocked()
		frac = d.ov.Fraction()
	}
	d.mu.Unlock()
	if removed > 0 {
		r.maybeCompact(frac)
	}
	return removed
}

// Update moves the point with stable ID id to p, preserving its ID, and
// reports whether the ID was live before the call. An ID that is not live —
// never assigned, or removed earlier — is (re)inserted under that exact ID,
// so Update doubles as an upsert and supports remove-then-reinsert of the
// same identity. Negative IDs are rejected (returning false) without
// mutating. Update is one mutation batch: the epoch is bumped once.
//
// Update panics with an error wrapping ErrNonFiniteCoordinate if p has a
// NaN or infinite coordinate; the relation is then left unchanged.
func (r *Relation) Update(id int32, p Point) bool {
	if id < 0 {
		return false
	}
	if !finite(p) {
		panic(fmt.Errorf("%w: %v (update of ID %d)", ErrNonFiniteCoordinate, p, id))
	}
	d := r.d
	d.mu.Lock()
	d.ensureOverlayLocked()
	existed := d.ov.Remove(id)
	d.ov.Insert(p, id)
	if id >= d.nextID {
		d.nextID = id + 1
	}
	d.publishLocked()
	frac := d.ov.Fraction()
	d.mu.Unlock()
	r.maybeCompact(frac)
	return existed
}

// Compact synchronously merges the overlay into a fresh block-contiguous
// store and from-scratch index (same kind and block capacity), publishing
// the result as the new snapshot. Stable IDs are preserved; the covered
// region never shrinks. Query results are unchanged by construction, so
// Compact does not bump the epoch and cached results stay valid. With no
// overlay resident it is a no-op.
func (r *Relation) Compact() error {
	d := r.d
	d.mu.Lock()
	defer d.mu.Unlock()
	return r.compactLocked()
}

// ensureOverlayLocked lazily creates the overlay store over the current
// snapshot's index. Invariant: d.ov == nil exactly while the current
// snapshot is a native (relation-wide store) index — right after
// construction or a compaction — so the base here always exposes a store.
func (d *relData) ensureOverlayLocked() {
	if d.ov == nil {
		d.ov = overlay.NewStore(d.snap.Load().rel.Ix, d.cfg.capacity)
	}
}

// publishLocked builds a snapshot from the overlay, swaps it in, and bumps
// the epoch — one mutation batch becomes visible.
func (d *relData) publishLocked() {
	snap := &relSnapshot{
		rel:        d.newCore(d.ov.Snapshot()),
		deltaLive:  d.ov.DeltaLive(),
		tombstones: d.ov.Tombstones(),
	}
	d.snap.Store(snap)
	d.epoch.Add(1)
	d.mutations.Add(1)
}

// maybeCompact starts a background merge when the overlay fraction has
// crossed the configured threshold and no merge is already running.
func (r *Relation) maybeCompact(frac float64) {
	d := r.d
	thr := d.cfg.compactFrac
	if thr < 0 {
		return
	}
	if thr == 0 {
		thr = defaultCompactThreshold
	}
	if frac < thr {
		return
	}
	if d.compacting.CompareAndSwap(false, true) {
		go func() {
			defer d.compacting.Store(false)
			// A failed build keeps serving the overlay snapshot — correct,
			// just not yet re-contiguous; the next mutation retries.
			_ = r.Compact()
		}()
	}
}

// compactLocked is Compact with d.mu held.
func (r *Relation) compactLocked() error {
	d := r.d
	if d.ov == nil || !d.ov.Mutated() {
		d.ov = nil
		return nil
	}
	st := d.ov.LiveStore()
	// Rebuild under the currently covered region so bounds grow
	// monotonically and empty live sets keep a well-defined region.
	bounds := d.snap.Load().rel.Ix.Bounds()
	ix, err := buildIndex(st, r.kind, d.cfg.capacity, bounds)
	if err != nil {
		return fmt.Errorf("twoknn: compacting %s index for %q: %w", r.kind, r.name, err)
	}
	d.snap.Store(&relSnapshot{rel: d.newCore(ix)})
	d.ov = nil
	d.compactions.Add(1)
	return nil
}
