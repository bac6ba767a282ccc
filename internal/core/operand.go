package core

import (
	"context"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/locality"
	"repro/internal/stats"
)

// This file defines what the algorithm bodies of this package are written
// against. The paper states each algorithm once, over any block-based index
// (Section 2); here each body likewise exists once and sees its relations
// only as Operands — an outer side that is scanned unit by unit, an inner
// side whose workers each hold a Probe — so it runs unchanged over a single
// relation (this file), an in-process sharded group and a fleet of remote
// shards (internal/shard implements both interfaces for groups).

// Probe is the inner side of a join as one worker holds it: the locality
// contract of the paper for single points, and the kNN-join of a whole unit.
// Like a locality.Searcher it is single-threaded, and a returned
// neighborhood is valid only until the probe's next call.
//
// c is the holder's counter shard. A borrowed *Relation handle counts into
// it as it goes; a multi-shard probe counts per shard and folds the sums
// into the counter it was borrowed with when it is given back.
type Probe interface {
	// Neighborhood returns the exact k nearest neighbors of p in ascending
	// (distance, X, Y) order.
	Neighborhood(p geom.Point, k int, c *stats.Counters) *locality.Neighborhood

	// NeighborhoodWithinSq is Neighborhood admitting only blocks whose
	// MINDIST² from p is within thresholdSq (see
	// locality.Searcher.NeighborhoodWithinSq).
	NeighborhoodWithinSq(p geom.Point, k int, thresholdSq float64, c *stats.Counters) *locality.Neighborhood

	// Neighborhoods is the focal-group form of both: emit sees focal i with
	// its neighborhood, in input order, valid until emit returns. A nil
	// thresholdsSq asks for Neighborhood; otherwise focal i gets
	// NeighborhoodWithinSq under thresholdsSq[i], and a negative threshold
	// an empty neighborhood without a search. A handle loops over its
	// searcher; a probe over remote shards sends the group as one gather.
	Neighborhoods(focals []geom.Point, k int, thresholdsSq []float64, c *stats.Counters,
		emit func(i int, nbr *locality.Neighborhood))

	// JoinUnit is the kNN-join of one unit: emit sees every point of u with
	// its exact k-neighborhood. A non-nil closerThan applies the Counting
	// prune (Procedure 1) first: a point with at least k inner points
	// strictly closer than closerThan's squared distance is skipped, and
	// counted in c. A handle walks the unit point by point; a probe over
	// remote shards sends it as one focal group.
	JoinUnit(u Unit, k int, closerThan func(geom.Point) float64, c *stats.Counters,
		emit func(e1 geom.Point, nbr *locality.Neighborhood))

	// Checkpoint polls the probe's cancellation binding: a no-op on unbound
	// probes, a fault.Cancel panic once the bound context is done.
	Checkpoint()
}

// Operand is one relation of a query as the algorithm bodies see it. Every
// operand can stand on either side of a join: scanned as the outer (Units),
// probed as the inner (Borrow).
type Operand interface {
	// Len returns the operand's cardinality.
	Len() int

	// Indexes returns the in-process indexes holding the operand's blocks —
	// one for a relation, one per shard for an in-process group — and nil
	// when the blocks live in other processes. The steps that need more than
	// block headers look here and fall back when they do not find it:
	// Procedure 3's contour scan needs one index that tiles space
	// (ContourApplies), Procedure 4's Candidate marks need every index's
	// Locate.
	Indexes() []index.Index

	// Extent returns the total area the operand's indexes cover, each shard
	// of a group counting its own region: the denominator of
	// EstimateClusterCoverage.
	Extent() float64

	// Units lists the operand's blocks as outer-side work, in scan order.
	Units() []Unit

	// Borrow equips crew member w with a probe on the operand; c is the
	// member's counter shard. Worker 0 always gets one — it may wait for it,
	// and a wait cut short by cancellation unwinds as a fault.Cancel panic —
	// while the others stand down (ok == false) rather than wait. Return
	// gives a borrowed probe back.
	Borrow(w int, c *stats.Counters) (p Probe, ok bool)
	Return(p Probe)
}

// Unit is one claimable piece of outer-side work. Exactly one of Block,
// Fetch and Points is set.
type Unit struct {
	// Block is an in-process index block: workers scan its span of the
	// store's flat X/Y columns, no points are materialized up front.
	Block *index.Block

	// Span, N and Fetch describe a block held by another process: its MBR
	// and point count from the shard's header listing, and the call that
	// brings its points over the wire — made at most once per claim, and
	// never for a block a marking step discards on its header alone.
	Span  geom.Rect
	N     int
	Fetch func() []geom.Point

	// Points is an explicit point list (a chunk of a selected point set).
	Points []geom.Point
}

// Count returns the unit's point count.
func (u Unit) Count() int {
	switch {
	case u.Block != nil:
		return u.Block.Count()
	case u.Fetch != nil:
		return u.N
	default:
		return len(u.Points)
	}
}

// Bounds returns the region of a block unit.
func (u Unit) Bounds() geom.Rect {
	if u.Block != nil {
		return u.Block.Bounds
	}
	return u.Span
}

// EachPoint calls fn for every point of the unit, fetching a remote block.
func (u Unit) EachPoint(fn func(p geom.Point)) {
	if u.Block != nil {
		xs, ys := u.Block.XYs()
		for i := range xs {
			fn(geom.Point{X: xs[i], Y: ys[i]})
		}
		return
	}
	for _, p := range u.AllPoints() {
		fn(p)
	}
}

// AllPoints materializes the unit's points — the focal group a probe over
// remote shards sends.
func (u Unit) AllPoints() []geom.Point {
	switch {
	case u.Block != nil:
		return u.Block.AppendPoints(make([]geom.Point, 0, u.Block.Count()))
	case u.Fetch != nil:
		return u.Fetch()
	default:
		return u.Points
	}
}

// pointUnits cuts a point list into Chunks units.
func pointUnits(pts []geom.Point, workers int) []Unit {
	var units []Unit
	Chunks(len(pts), workers, func(start, end int) {
		units = append(units, Unit{Points: pts[start:end]})
	})
	return units
}

// A *Relation is an Operand and, held by one goroutine, its own Probe: the
// per-point loop on its own searcher, with no probe object in between.

// Indexes implements Operand.
func (r *Relation) Indexes() []index.Index { return r.ixs }

// Extent implements Operand.
func (r *Relation) Extent() float64 { return r.Ix.Bounds().Area() }

// Units implements Operand: one unit per block, in the order ForEachPoint
// scans.
func (r *Relation) Units() []Unit {
	blocks := r.Ix.Blocks()
	units := make([]Unit, len(blocks))
	for i, b := range blocks {
		units[i].Block = b
	}
	return units
}

// Borrow implements Operand for a relation the caller holds: worker 0 runs
// on r itself — its searcher is the caller's to lend — while extra workers
// borrow handles from r's pool, inheriting r's cancellation binding so the
// whole crew checkpoints the same context.
func (r *Relation) Borrow(w int, _ *stats.Counters) (Probe, bool) {
	if w == 0 {
		return r, true
	}
	return r.lend(r.S.Context())
}

// Return implements Operand: a pooled handle goes back to the pool, r itself
// stays the caller's.
func (r *Relation) Return(p Probe) {
	if h := p.(*Relation); h != r {
		h.Release()
	}
}

// lend borrows a pooled handle bound to ctx without waiting for one.
func (r *Relation) lend(ctx context.Context) (Probe, bool) {
	h, err := r.TryAcquire()
	if err != nil {
		return nil, false
	}
	h.S.Bind(ctx)
	return h, true
}

// Neighborhood implements Probe.
func (r *Relation) Neighborhood(p geom.Point, k int, c *stats.Counters) *locality.Neighborhood {
	return r.S.Neighborhood(p, k, c)
}

// NeighborhoodWithinSq implements Probe.
func (r *Relation) NeighborhoodWithinSq(p geom.Point, k int, thresholdSq float64, c *stats.Counters) *locality.Neighborhood {
	return r.S.NeighborhoodWithinSq(p, k, thresholdSq, c)
}

// Neighborhoods implements Probe: focal by focal on r's searcher.
func (r *Relation) Neighborhoods(focals []geom.Point, k int, thresholdsSq []float64, c *stats.Counters,
	emit func(i int, nbr *locality.Neighborhood)) {

	for i, f := range focals {
		switch {
		case thresholdsSq == nil:
			emit(i, r.S.Neighborhood(f, k, c))
		case thresholdsSq[i] < 0:
			emit(i, &locality.Neighborhood{Center: f})
		default:
			emit(i, r.S.NeighborhoodWithinSq(f, k, thresholdsSq[i], c))
		}
	}
}

// JoinUnit implements Probe: count, then neighborhood, point by point.
func (r *Relation) JoinUnit(u Unit, k int, closerThan func(geom.Point) float64, c *stats.Counters,
	emit func(e1 geom.Point, nbr *locality.Neighborhood)) {

	u.EachPoint(func(e1 geom.Point) {
		if closerThan != nil && r.S.CountStrictlyCloser(e1, k, closerThan(e1), c) >= k {
			// ≥ k inner points strictly closer to e1 than anything
			// selected: e1 cannot contribute.
			c.AddOuterSkipped(1)
			return
		}
		emit(e1, r.S.Neighborhood(e1, k, c))
	})
}

// Pooled is a relation as the operand of one query running under Ctx: where
// a bare *Relation lends worker 0 its own searcher, Pooled borrows every
// worker's handle from the relation's pool — worker 0 waiting for a bounded
// pool no longer than Ctx allows — and binds it to Ctx. A query therefore
// holds a handle only while a step probes, never two operands' at once, so
// queries over the same bounded relations cannot deadlock on each other
// whatever order they name them in.
type Pooled struct {
	*Relation
	Ctx context.Context
}

// Borrow implements Operand.
func (p Pooled) Borrow(w int, _ *stats.Counters) (Probe, bool) {
	if w > 0 {
		return p.lend(p.Ctx)
	}
	h, err := p.AcquireCtx(p.Ctx)
	if err != nil {
		panic(&fault.Cancel{Err: err})
	}
	return h, true
}

// Return implements Operand.
func (p Pooled) Return(h Probe) { h.(*Relation).Release() }
