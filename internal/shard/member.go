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
// is an ordered list of Members; the probe never sees what backs one. The
// in-process implementations below are zero-overhead views over
// *core.Relation (pointer conversions, so steady-state probe work stays
// allocation-free); internal/remote implements the same interfaces over an
// HTTP shard-probe protocol, which is what lifts every query shape onto
// N-process layouts without touching an algorithm.
//
// The two kinds of member answer the paper's locality contract (top-k
// neighborhood, threshold-clipped neighborhood, conservative
// strictly-closer count) at different granularities, because a call costs
// them differently. An in-process member is a searcher handle: the probe
// calls it point by point (Local), nanoseconds apiece. A remote member is a
// round trip: the probe hands it a whole focal group per request
// (GroupProber) and keeps every shard's request in flight at once.

// Prober is one borrowed per-shard handle: the lifecycle the probe
// needs (context binding, block-granular checkpoints, release) and
// the way to the member's candidate generation — Local for an in-process
// member, the GroupProber methods for a remote one. Like a
// locality.Searcher, a Prober is single-threaded.
type Prober interface {
	// Bounds returns the shard index's bounds (the MINDIST shard-skip key).
	Bounds() geom.Rect

	// Bind attaches ctx for cooperative cancellation; Checkpoint polls it.
	Bind(ctx context.Context)
	Checkpoint()

	// Release returns the handle to its member.
	Release()

	// Local returns the borrowed *core.Relation handle of an in-process
	// member — its searcher answers the probe's per-point walk — and nil
	// for a remote one, which is a GroupProber.
	Local() *core.Relation
}

// GroupAnswer holds one candidate span per focal in flat arrays — span j is
// Points/Dists[Offs[j]:Offs[j+1]], so Offs starts with a 0 — or one count
// per focal.
type GroupAnswer struct {
	Points []geom.Point
	Dists  []float64
	Offs   []int
	Counts []int
}

// reset empties the answer, keeping its buffers.
func (a *GroupAnswer) reset() {
	a.Points, a.Dists, a.Counts = a.Points[:0], a.Dists[:0], a.Counts[:0]
	a.Offs = append(a.Offs[:0], 0)
}

// view aliases span j as a Neighborhood.
func (a *GroupAnswer) view(j int, center geom.Point, nb *locality.Neighborhood) {
	nb.Center = center
	nb.Points = a.Points[a.Offs[j]:a.Offs[j+1]]
	nb.Dists = a.Dists[a.Offs[j]:a.Offs[j+1]]
}

// appendNbr copies one neighborhood into the answer as its next span.
func (a *GroupAnswer) appendNbr(nb *locality.Neighborhood) {
	a.Points = append(a.Points, nb.Points...)
	a.Dists = append(a.Dists, nb.Dists...)
	a.Offs = append(a.Offs, len(a.Points))
}

// GroupProber is the Prober of a remote member. Its unit of work is the
// focal group and its failures are values: a wave of the gather runs one
// call per shard, each on its own goroutine, and only after the wave has
// joined does the probe's own goroutine Raise what went wrong.
//
// ProbeGroup and CountGroup are the methods a goroutine other than the
// handle's owner may call. ctx, derived from the bound context, bounds the
// call; a group larger than the wire's cap goes out as consecutive
// requests; the shard's reported operation counts fold into c. Neither
// unwinds on a remote failure: the error comes back and ans is as it was.
type GroupProber interface {
	Prober

	// ProbeGroup appends to ans one span per focal: the shard-local k
	// nearest neighbors in ascending (distance, X, Y) order, admitting —
	// when thresholdsSq is non-nil — only blocks with MINDIST² within the
	// focal's squared threshold (see locality.Searcher.NeighborhoodWithinSq).
	ProbeGroup(ctx context.Context, focals []geom.Point, k int, thresholdsSq []float64,
		ans *GroupAnswer, c *stats.Counters) error

	// CountGroup appends to ans one count per focal: conservatively, the
	// shard points strictly closer than the focal's squared threshold,
	// stopping at k.
	CountGroup(ctx context.Context, focals []geom.Point, k int, thresholdsSq []float64,
		ans *GroupAnswer, c *stats.Counters) error

	// Degrades reports whether the bound context tolerates this shard's
	// failure (partial-results mode): Raise then records it and returns,
	// so the requests in flight beside a failed one are worth finishing.
	Degrades() bool

	// Raise disposes of a failed call's error on the handle owner's
	// goroutine: a dead bound context unwinds as cancellation, a degrading
	// one records the shard missing and returns, anything else unwinds
	// fail-closed with err.
	Raise(err error)
}

// Member is one shard of a Group: the acquire surface the probe assembles
// handles from, plus the outer-side views (cardinality, bounds, block
// enumeration) the algorithms read without holding a handle.
type Member interface {
	// Len returns the shard's cardinality.
	Len() int

	// Bounds returns the shard index's bounds.
	Bounds() geom.Rect

	// Index returns an in-process member's index, nil for a remote one.
	Index() index.Index

	// OuterBlocks enumerates the shard's blocks as outer-side work units:
	// local blocks carry their span directly, remote ones a header (bounds,
	// count) plus a lazy point fetch — which is what keeps Block-Marking a
	// network-transfer prune: a marked non-contributing block's points are
	// never fetched. ctx bounds remote fetches (nil means no bound); local
	// members ignore it.
	OuterBlocks(ctx context.Context) []core.Unit

	// Acquire borrows a handle, blocking on bounded pools.
	Acquire() Prober

	// AcquireCtx is Acquire bounding the wait by ctx and binding the handle
	// to it.
	AcquireCtx(ctx context.Context) (Prober, error)

	// TryAcquire is Acquire without blocking; the error reports a pool at
	// capacity (extra scatter workers stand down on it).
	TryAcquire() (Prober, error)
}

// LocalMember wraps an in-process relation as a Member. The wrapper is a
// pointer conversion — no allocation, no indirection beyond the interface
// call itself.
func LocalMember(rel *core.Relation) Member { return (*localMember)(rel) }

type localMember core.Relation

func (m *localMember) rel() *core.Relation { return (*core.Relation)(m) }

func (m *localMember) Len() int          { return m.rel().Len() }
func (m *localMember) Bounds() geom.Rect { return m.rel().Ix.Bounds() }

func (m *localMember) Index() index.Index { return m.rel().Ix }

func (m *localMember) OuterBlocks(context.Context) []core.Unit { return m.rel().Units() }

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

func (p *localProber) Bounds() geom.Rect        { return p.h().Ix.Bounds() }
func (p *localProber) Bind(ctx context.Context) { p.h().S.Bind(ctx) }
func (p *localProber) Checkpoint()              { p.h().Checkpoint() }
func (p *localProber) Release()                 { p.h().Release() }
func (p *localProber) Local() *core.Relation    { return p.h() }
