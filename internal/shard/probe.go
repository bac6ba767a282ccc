package shard

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/locality"
	"repro/internal/stats"
)

// probe is one worker's gather view over a group: a borrowed handle per
// shard plus the scratch to merge per-shard neighborhoods into exact global
// ones. Like a locality.Searcher, a probe is single-threaded and its merged
// result is valid only until the probe's next query; every crew member of an
// algorithm borrows its own (Group.Borrow), as the core.Probe the bodies of
// internal/core are written against.
//
// How the per-shard candidates are fetched depends on what the members are,
// which the group knows (Prober.Local). In-process members are searcher
// handles, and the probe walks them point by point in ascending MINDIST²,
// tightening the skip limit after every shard (neighborhoodWithinSq,
// below): that walk is CPU-bound and allocation-free, and nothing can be
// won by overlapping it. Remote members cost a round trip per call, so the
// same queries go out as focal groups in concurrent waves instead
// (gather.go).
//
// Per-shard operation counts accumulate in the probe's delta counters and
// are folded into the group's lifetime per-shard counters (and the query's
// WithStats target) exactly once, at release — so the hot probe loop touches
// no shared cache lines.
type probe struct {
	g       Group
	handles []Prober
	remote  *gatherer       // non-nil over remote members
	ctr     *stats.Counters // a borrowed probe's query counter (Group.Borrow), folded into at Return
	deltas  []*stats.Counters
	nbrs    []*locality.Neighborhood
	cursors []int
	dSqs    [][]float64 // per-shard candidate distances, precomputed once per merge
	merged  locality.Neighborhood

	// shard-skip scratch: per-shard MINDIST² of the shard's index bounds
	// from the current query point, the probe order (ascending MINDIST²),
	// and a shared empty result for skipped shards.
	minSqs   []float64
	order    []int
	emptyNbr locality.Neighborhood
}

// acquire borrows one handle per shard, blocking on bounded pools. Handles
// are acquired in shard order, which is a fixed total order per group, so
// concurrent probes over one group cannot deadlock against each other.
//
// A non-nil ctx bounds each per-shard wait and binds the handles for
// block-granularity cancellation; if ctx expires mid-acquisition the
// handles obtained so far are released and the cancellation unwinds as a
// fault.Cancel panic (recovered into a typed error at the public layer) —
// a query that could not assemble its probe holds nothing.
func acquire(ctx context.Context, g Group) *probe {
	pr := newProbe(g)
	for i, m := range g.members {
		if ctx == nil {
			pr.handles[i] = m.Acquire()
			continue
		}
		h, err := m.AcquireCtx(ctx)
		if err != nil {
			for _, held := range pr.handles[:i] {
				held.Release()
			}
			panic(&fault.Cancel{Err: err})
		}
		pr.handles[i] = h
	}
	pr.equip(ctx)
	return pr
}

// tryAcquire is acquire without blocking: if any shard's bounded pool is
// exhausted, every handle obtained so far is returned and ok is false (the
// extra crew member stands down; see core.RunCrew). Obtained handles are
// bound to ctx so extra workers checkpoint the same context as worker 0.
func tryAcquire(ctx context.Context, g Group) (pr *probe, ok bool) {
	pr = newProbe(g)
	for i, m := range g.members {
		h, err := m.TryAcquire()
		if err != nil {
			for _, held := range pr.handles[:i] {
				held.Release()
			}
			return nil, false
		}
		h.Bind(ctx)
		pr.handles[i] = h
	}
	pr.equip(ctx)
	return pr, true
}

// equip settles, once every handle is held, how the probe reaches its
// members' candidates: in-process members through their searchers
// (Prober.Local), remote ones — a group's members are all of one kind —
// through a gatherer.
func (pr *probe) equip(ctx context.Context) {
	if pr.handles[0].Local() == nil {
		pr.remote = newGatherer(ctx, pr.handles)
	}
}

// checkpoint polls the probe's cancellation binding (carried by the shard-0
// handle; every handle shares the same ctx) — called once per claimed unit.
func (pr *probe) checkpoint() { pr.handles[0].Checkpoint() }

// The core.Probe face of a probe. Operation counts accumulate per shard in
// the probe's deltas whatever counter a call names, and reach the counter
// the probe was borrowed with at release.

// Neighborhood implements core.Probe.
func (pr *probe) Neighborhood(p geom.Point, k int, _ *stats.Counters) *locality.Neighborhood {
	return pr.neighborhood(p, k)
}

// NeighborhoodWithinSq implements core.Probe.
func (pr *probe) NeighborhoodWithinSq(p geom.Point, k int, thresholdSq float64, _ *stats.Counters) *locality.Neighborhood {
	return pr.neighborhoodWithinSq(p, k, thresholdSq)
}

// Neighborhoods implements core.Probe. In-process members are asked focal by
// focal, each under the shard skip; remote ones get the focals as one focal
// group, one gather of at most two waves.
func (pr *probe) Neighborhoods(focals []geom.Point, k int, thresholdsSq []float64, _ *stats.Counters,
	emit func(i int, nbr *locality.Neighborhood)) {

	if pr.remote != nil {
		res := pr.gatherReused(focals, k, thresholdsSq)
		var nbr locality.Neighborhood
		for i, f := range focals {
			res.view(i, f, &nbr)
			emit(i, &nbr)
		}
		return
	}
	for i, f := range focals {
		thresholdSq := math.Inf(1)
		if thresholdsSq != nil {
			thresholdSq = thresholdsSq[i]
		}
		if thresholdSq < 0 {
			emit(i, &locality.Neighborhood{Center: f})
			continue
		}
		emit(i, pr.neighborhoodWithinSq(f, k, thresholdSq))
	}
}

// Checkpoint implements core.Probe.
func (pr *probe) Checkpoint() { pr.checkpoint() }

// JoinUnit implements core.Probe. In-process members are asked point by
// point, count then neighborhood; remote ones get the unit as a focal group
// — its counts, then the survivors' neighborhoods — so a unit costs one or
// two waves of round trips, not one round trip per point per shard.
func (pr *probe) JoinUnit(u core.Unit, k int, closerThan func(geom.Point) float64, ctr *stats.Counters,
	emit func(e1 geom.Point, nbr *locality.Neighborhood)) {

	if pr.remote == nil {
		u.EachPoint(func(e1 geom.Point) {
			if closerThan != nil && pr.countStrictlyCloser(e1, k, closerThan(e1)) >= k {
				ctr.AddOuterSkipped(1)
				return
			}
			emit(e1, pr.neighborhood(e1, k))
		})
		return
	}
	pts := u.AllPoints()
	if closerThan != nil {
		thresholdsSq := make([]float64, len(pts))
		for i, e1 := range pts {
			thresholdsSq[i] = closerThan(e1)
		}
		kept := make([]geom.Point, 0, len(pts))
		for i, n := range pr.gatherCounts(pts, k, thresholdsSq) {
			if n < k {
				kept = append(kept, pts[i])
			}
		}
		ctr.AddOuterSkipped(len(pts) - len(kept))
		pts = kept
	}
	pr.Neighborhoods(pts, k, nil, ctr, func(i int, nbr *locality.Neighborhood) { emit(pts[i], nbr) })
}

func newProbe(g Group) *probe {
	n := len(g.members)
	pr := &probe{
		g:       g,
		handles: make([]Prober, n),
		deltas:  make([]*stats.Counters, n),
		nbrs:    make([]*locality.Neighborhood, n),
		cursors: make([]int, n),
		dSqs:    make([][]float64, n),
		minSqs:  make([]float64, n),
		order:   make([]int, n),
	}
	for i := range pr.deltas {
		pr.deltas[i] = new(stats.Counters)
	}
	return pr
}

// release returns every handle to its pool and folds the per-shard deltas
// into the group's lifetime counters and into ctr (the query's counter
// shard; nil is valid and records nothing).
func (pr *probe) release(ctr *stats.Counters) {
	for i, h := range pr.handles {
		if pr.g.counters != nil {
			pr.g.counters[i].Add(pr.deltas[i])
		}
		ctr.Add(pr.deltas[i])
		h.Release()
	}
}

// neighborhood returns the exact global k nearest neighbors of p across all
// shards: each shard contributes its local top-k (same walk, same
// (distance, X, Y) tie order as the single-relation path), and the merge
// re-selects the global k from the ≤ S·k candidates. The result is reused
// across calls; callers retain it only via Clone.
func (pr *probe) neighborhood(p geom.Point, k int) *locality.Neighborhood {
	if pr.remote != nil {
		return pr.gatherOne(p, k, nil)
	}
	return pr.neighborhoodWithinSq(p, k, math.Inf(1))
}

// neighborhoodWithinSq is the sharded form of Searcher.NeighborhoodWithinSq:
// each shard admits exactly its blocks with MINDIST²(p) ≤ thresholdSq and
// the merge re-selects k. It carries the same guarantee as the
// single-relation version — intersecting the result with any point set whose
// members all lie within the threshold of p equals intersecting with the
// true neighborhood — because every point closer to p than a
// within-threshold candidate is itself within threshold, hence admitted by
// its own shard and ranked ahead in the merge.
//
// Shards are probed in ascending MINDIST² of their index bounds, and a
// shard is skipped outright once its MINDIST² exceeds the skip limit: the
// threshold at first, lowered to the k-th squared distance of each earlier
// shard that produced k candidates. Every point of a skipped shard is then
// strictly farther than k known candidates, or beyond the threshold, so it
// cannot enter the global top-k regardless of tie-breaking. Under spatial
// partitioning this is what keeps distant tiles cheap — most probes touch
// one or two shards; under hash partitioning shard bounds all cover the
// data extent and every shard is probed. Over remote members the same skip
// rule runs wave by wave instead of shard by shard (gather).
func (pr *probe) neighborhoodWithinSq(p geom.Point, k int, thresholdSq float64) *locality.Neighborhood {
	if pr.remote != nil {
		return pr.gatherOne(p, k, []float64{thresholdSq})
	}
	if len(pr.handles) == 1 {
		if fault.Armed() {
			fault.OnShardProbe(0)
		}
		return pr.handles[0].Local().S.NeighborhoodWithinSq(p, k, thresholdSq, pr.deltas[0])
	}
	pr.probeOrder(p)
	limit := thresholdSq
	for _, s := range pr.order {
		if pr.minSqs[s] > limit {
			pr.nbrs[s] = &pr.emptyNbr
			continue
		}
		if fault.Armed() {
			fault.OnShardProbe(s)
		}
		nbr := pr.handles[s].Local().S.NeighborhoodWithinSq(p, k, thresholdSq, pr.deltas[s])
		pr.nbrs[s] = nbr
		if len(nbr.Points) == k {
			if b := nbr.Points[k-1].DistSq(p); b < limit {
				limit = b
			}
		}
	}
	return pr.merge(p, k)
}

// probeOrder fills pr.order with shard indices in ascending MINDIST² of
// their index bounds from p (insertion sort; S is small).
func (pr *probe) probeOrder(p geom.Point) {
	for s, h := range pr.handles {
		pr.minSqs[s] = h.Bounds().MinDistSq(p)
		pr.order[s] = s
	}
	for i := 1; i < len(pr.order); i++ {
		for j := i; j > 0 && pr.minSqs[pr.order[j]] < pr.minSqs[pr.order[j-1]]; j-- {
			pr.order[j], pr.order[j-1] = pr.order[j-1], pr.order[j]
		}
	}
}

// merge k-selects from the per-shard sorted candidate lists in pr.nbrs into
// the reusable merged result. Comparison is on squared distance computed
// from the coordinates — the same quantity the per-shard selection heaps
// ordered by — with exact ties broken by canonical (X, Y) order; identical
// co-located points are kept (never deduped), preserving the single-relation
// multiset semantics. Each candidate's squared distance is precomputed once
// into the probe's per-shard scratch (the k-way loop re-reads every shard's
// head each round, so computing on demand would redo the same distance up
// to k times). Steady state allocates nothing: the merged buffers, cursors
// and distance scratch are reused across calls.
func (pr *probe) merge(p geom.Point, k int) *locality.Neighborhood {
	m := &pr.merged
	m.Center = p
	m.Points = m.Points[:0]
	m.Dists = m.Dists[:0]
	for s, nbr := range pr.nbrs {
		pr.cursors[s] = 0
		d := pr.dSqs[s][:0]
		for _, q := range nbr.Points {
			d = append(d, q.DistSq(p))
		}
		pr.dSqs[s] = d
	}
	for len(m.Points) < k {
		best := -1
		var bestSq, bestDist float64
		var bestPt geom.Point
		for s, nbr := range pr.nbrs {
			cur := pr.cursors[s]
			if cur >= len(nbr.Points) {
				continue
			}
			q := nbr.Points[cur]
			dSq := pr.dSqs[s][cur]
			if best < 0 || dSq < bestSq || (dSq == bestSq && q.Less(bestPt)) {
				best, bestSq, bestPt, bestDist = s, dSq, q, nbr.Dists[cur]
			}
		}
		if best < 0 {
			break
		}
		pr.cursors[best]++
		m.Points = append(m.Points, bestPt)
		m.Dists = append(m.Dists, bestDist)
	}
	return m
}

// countStrictlyCloser sums the shards' conservative counts of points
// strictly closer to p than the (squared) threshold, stopping once the sum
// reaches k. Shards partition the point set, so the sum counts distinct real
// points and the Counting algorithm's skip proof applies globally. It walks
// in-process members; over remote ones the Counting prune asks for a whole
// unit's counts at once (gatherCounts).
func (pr *probe) countStrictlyCloser(p geom.Point, k int, thresholdSq float64) int {
	total := 0
	for s, h := range pr.handles {
		total += h.Local().S.CountStrictlyCloser(p, k, thresholdSq, pr.deltas[s])
		if total >= k {
			break
		}
	}
	return total
}
