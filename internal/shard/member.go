package shard

import (
	"context"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/locality"
	"repro/internal/stats"
)

// This file defines the transport seam of the scatter/gather layer. A Group
// is an ordered list of Members; the drivers never see what backs one. The
// in-process implementations below are zero-overhead views over
// *core.Relation (pointer conversions, so steady-state probe work stays
// allocation-free); internal/remote implements the same two interfaces over
// an HTTP shard-probe protocol, which is what lifts every query shape onto
// N-process layouts without touching a driver.

// Prober is one borrowed per-shard candidate-generation handle: the exact
// locality contract of the paper (top-k neighborhood, threshold-clipped
// neighborhood, conservative strictly-closer count), plus the lifecycle the
// scatter drivers need (context binding, block-granular checkpoints,
// release). Like a locality.Searcher, a Prober is single-threaded and its
// results are valid only until its next call.
type Prober interface {
	// Bounds returns the shard index's bounds (the MINDIST shard-skip key).
	Bounds() geom.Rect

	// Neighborhood returns the shard-local k nearest neighbors of p in the
	// repository-wide ascending (distance, X, Y) order.
	Neighborhood(p geom.Point, k int, c *stats.Counters) *locality.Neighborhood

	// NeighborhoodWithinSq is Neighborhood admitting only blocks with
	// MINDIST²(p) ≤ thresholdSq; see locality.Searcher.NeighborhoodWithinSq.
	NeighborhoodWithinSq(p geom.Point, k int, thresholdSq float64, c *stats.Counters) *locality.Neighborhood

	// CountStrictlyCloser conservatively counts shard points strictly closer
	// to p than the squared threshold, stopping at k.
	CountStrictlyCloser(p geom.Point, k int, thresholdSq float64, c *stats.Counters) int

	// Bind attaches ctx for cooperative cancellation; Checkpoint polls it.
	Bind(ctx context.Context)
	Checkpoint()

	// Release returns the handle to its member.
	Release()

	// Local returns the backing *core.Relation handle for in-process
	// members, nil for remote ones. The batched drivers take the local fast
	// path through it; everything else stays on the interface.
	Local() *core.Relation
}

// Member is one shard of a Group: the acquire surface the probe assembles
// handles from, plus the outer-side views (cardinality, bounds, block
// enumeration) the scatter drivers read without holding a handle.
type Member interface {
	// Len returns the shard's cardinality.
	Len() int

	// Bounds returns the shard index's bounds.
	Bounds() geom.Rect

	// OuterBlocks enumerates the shard's blocks for outer-side scatter:
	// local blocks carry their span directly, remote ones a header (bounds,
	// count) plus a lazy point fetch — which is what keeps Block-Marking a
	// network-transfer prune: a marked non-contributing block's points are
	// never fetched. ctx bounds remote fetches (nil means no bound); local
	// members ignore it.
	OuterBlocks(ctx context.Context) []OuterBlock

	// Acquire borrows a handle, blocking on bounded pools.
	Acquire() Prober

	// AcquireCtx is Acquire bounding the wait by ctx and binding the handle
	// to it.
	AcquireCtx(ctx context.Context) (Prober, error)

	// TryAcquire is Acquire without blocking; the error reports a pool at
	// capacity (extra scatter workers stand down on it).
	TryAcquire() (Prober, error)
}

// OuterBlock is one claimable outer-side block. Exactly one of Local and
// Fetch is set: Local is an in-process index block, Fetch materializes a
// remote block's points over the wire (called at most once per claim, and
// never for blocks the Block-Marking prune discards).
type OuterBlock struct {
	// Local is the in-process block, when the member is local.
	Local *index.Block

	// Span and N describe a remote block: its MBR and point count,
	// shipped in the remote member's block-header listing.
	Span geom.Rect
	N    int

	// Fetch returns a remote block's points.
	Fetch func() []geom.Point
}

// Count returns the block's point count.
func (b OuterBlock) Count() int {
	if b.Local != nil {
		return b.Local.Count()
	}
	return b.N
}

// Center returns the center of the block's bounds.
func (b OuterBlock) Center() geom.Point {
	if b.Local != nil {
		return b.Local.Center()
	}
	return b.Span.Center()
}

// Diagonal returns the diagonal length of the block's bounds.
func (b OuterBlock) Diagonal() float64 {
	if b.Local != nil {
		return b.Local.Diagonal()
	}
	return b.Span.Diagonal()
}

// LocalMember wraps an in-process relation as a Member. The wrapper is a
// pointer conversion — no allocation, no indirection beyond the interface
// call itself.
func LocalMember(rel *core.Relation) Member { return (*localMember)(rel) }

type localMember core.Relation

func (m *localMember) rel() *core.Relation { return (*core.Relation)(m) }

func (m *localMember) Len() int          { return m.rel().Len() }
func (m *localMember) Bounds() geom.Rect { return m.rel().Ix.Bounds() }

func (m *localMember) OuterBlocks(context.Context) []OuterBlock {
	blks := m.rel().Ix.Blocks()
	out := make([]OuterBlock, len(blks))
	for i, b := range blks {
		out[i] = OuterBlock{Local: b}
	}
	return out
}

func (m *localMember) Acquire() Prober { return (*localProber)(m.rel().Acquire()) }

func (m *localMember) AcquireCtx(ctx context.Context) (Prober, error) {
	h, err := m.rel().AcquireCtx(ctx)
	if err != nil {
		return nil, err
	}
	return (*localProber)(h), nil
}

func (m *localMember) TryAcquire() (Prober, error) {
	h, err := m.rel().TryAcquire()
	if err != nil {
		return nil, err
	}
	return (*localProber)(h), nil
}

// localProber adapts a borrowed *core.Relation handle to the Prober
// interface by pointer conversion, so holding probes stays allocation-free.
type localProber core.Relation

func (p *localProber) h() *core.Relation { return (*core.Relation)(p) }

func (p *localProber) Bounds() geom.Rect { return p.h().Ix.Bounds() }

func (p *localProber) Neighborhood(q geom.Point, k int, c *stats.Counters) *locality.Neighborhood {
	return p.h().S.Neighborhood(q, k, c)
}

func (p *localProber) NeighborhoodWithinSq(q geom.Point, k int, thresholdSq float64, c *stats.Counters) *locality.Neighborhood {
	return p.h().S.NeighborhoodWithinSq(q, k, thresholdSq, c)
}

func (p *localProber) CountStrictlyCloser(q geom.Point, k int, thresholdSq float64, c *stats.Counters) int {
	return p.h().S.CountStrictlyCloser(q, k, thresholdSq, c)
}

func (p *localProber) Bind(ctx context.Context) { p.h().S.Bind(ctx) }
func (p *localProber) Checkpoint()              { p.h().Checkpoint() }
func (p *localProber) Release()                 { p.h().Release() }
func (p *localProber) Local() *core.Relation    { return p.h() }
