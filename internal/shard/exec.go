package shard

import (
	"context"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/locality"
	"repro/internal/stats"
)

// This file implements the scatter/gather execution drivers for the paper's
// five query shapes (kNN-select, select+kNN-join in both positions, two
// kNN-selects, unchained and chained two-join queries) plus the range-join
// extension, over Group operands that may be sharded, un-sharded, or a mix.
//
// Scatter: the outer side's tuples — shard block spans, chunks of a selected
// point list, or chunks of a first join's pairs — are the work units of the
// one worker crew the single-relation algorithms run on too (core.RunCrew);
// each worker holds a probe (one pooled searcher handle per inner shard)
// and generates candidates per-shard, merging them into exact global
// neighborhoods. Over in-process inner shards a unit is probed point by
// point; over remote ones the unit is the focal group — its points travel
// to each shard in one request, every shard's request in flight at once
// (gather.go) — so a unit costs one or two waves of round trips, not one
// round trip per point per shard.
//
// Gather: results are concatenated and canonically sorted (SortPairs /
// SortTriples order), which — because every per-tuple result multiset is
// exactly the single-relation one — makes the output byte-identical to the
// un-sharded evaluation after the same sort.

// unit is one claimable piece of outer-side work: a shard block (point
// joins; local span or remote header with lazy fetch), a chunk of an
// explicit point list (select-outer-join), or a chunk of first-join pairs
// (chained joins).
type unit struct {
	blk   OuterBlock
	pts   []geom.Point
	pairs []core.Pair
}

// eachPoint calls fn for every point of a block- or point-list unit. Remote
// block points are fetched here — after the Block-Marking prune had its
// chance to discard the block on its header alone.
func (u unit) eachPoint(fn func(p geom.Point)) {
	if u.blk.Local != nil {
		xs, ys := u.blk.Local.XYs()
		for i := range xs {
			fn(geom.Point{X: xs[i], Y: ys[i]})
		}
		return
	}
	if u.blk.Fetch != nil {
		for _, p := range u.blk.Fetch() {
			fn(p)
		}
		return
	}
	for _, p := range u.pts {
		fn(p)
	}
}

// points materializes a unit's points — the focal group a probe over remote
// members sends.
func (u unit) points() []geom.Point {
	if u.blk.Local != nil {
		xs, ys := u.blk.Local.XYs()
		pts := make([]geom.Point, len(xs))
		for i := range xs {
			pts[i] = geom.Point{X: xs[i], Y: ys[i]}
		}
		return pts
	}
	if u.blk.Fetch != nil {
		return u.blk.Fetch()
	}
	return u.pts
}

// joinUnit is the kNN-join of one unit: emit sees every point of u with its
// exact global k-neighborhood (valid for the call only). A non-nil
// closerThan applies the Counting prune (Procedure 1) first: a point with at
// least k inner points strictly closer than closerThan's squared distance
// is skipped, and counted in ctr. In-process members are asked point by
// point, count then neighborhood; remote ones get the unit as a focal
// group — its counts, then the survivors' neighborhoods.
func (pr *probe) joinUnit(u unit, k int, closerThan func(geom.Point) float64, ctr *stats.Counters,
	emit func(e1 geom.Point, nbr *locality.Neighborhood)) {

	if pr.remote == nil {
		u.eachPoint(func(e1 geom.Point) {
			if closerThan != nil && pr.countStrictlyCloser(e1, k, closerThan(e1)) >= k {
				ctr.AddOuterSkipped(1)
				return
			}
			emit(e1, pr.neighborhood(e1, k))
		})
		return
	}
	pts := u.points()
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
	res := pr.gatherReused(pts, k, nil)
	var nbr locality.Neighborhood
	for i, e1 := range pts {
		res.view(i, e1, &nbr)
		emit(e1, &nbr)
	}
}

// blockUnits lists every block of every shard of g, in shard-then-block
// order.
func blockUnits(ctx context.Context, g Group) []unit {
	var units []unit
	for _, m := range g.members {
		for _, b := range m.OuterBlocks(ctx) {
			units = append(units, unit{blk: b})
		}
	}
	return units
}

// pointUnits cuts pts into core.Chunks units.
func pointUnits(pts []geom.Point, workers int) []unit {
	var units []unit
	core.Chunks(len(pts), workers, func(start, end int) {
		units = append(units, unit{pts: pts[start:end]})
	})
	return units
}

// pairUnits cuts pairs into core.Chunks units, preserving order.
func pairUnits(pairs []core.Pair, workers int) []unit {
	var units []unit
	core.Chunks(len(pairs), workers, func(start, end int) {
		units = append(units, unit{pairs: pairs[start:end]})
	})
	return units
}

// emitFn consumes one unit, appending results to dst.
type emitFn[T any] func(u unit, dst []T) []T

// scatter fans units out on the core worker crew (core.RunCrew: atomic unit
// cursor, per-worker arenas, counter shards, panic isolation, abort), each
// worker holding a probe on inner: worker 0 blocks until it holds a full
// probe, the rest stand down if any inner shard's pool is at capacity.
// newEmit builds a worker's emitter around its probe and counter shard
// (per-worker state like the chained-join cache lives in the closure).
// workers <= 1 runs sequentially on the caller's goroutine. Results come
// back concatenated in unit order; callers canonically sort in their gather
// step.
//
// A non-nil ctx bounds the whole scatter: probes bind to it, every claimed
// unit starts with a checkpoint, and expiry unwinds as a fault.Cancel panic
// after all handles are released and stat deltas folded.
func scatter[T any](ctx context.Context, ap *core.ArenaPool[T], units []unit, inner Group, workers int,
	c *stats.Counters, newEmit func(pr *probe, ctr *stats.Counters) emitFn[T]) []T {

	return core.RunCrew(ap, len(units), workers, 0, c,
		func(w int, ctr *stats.Counters) (core.Worker[T], bool) {
			var pr *probe
			if w == 0 {
				pr = acquire(ctx, inner)
			} else {
				var ok bool
				if pr, ok = tryAcquire(ctx, inner); !ok {
					return core.Worker[T]{}, false
				}
			}
			emit := newEmit(pr, ctr)
			return core.Worker[T]{
				Emit: func(i int, dst []T) []T {
					pr.checkpoint()
					return emit(units[i], dst)
				},
				Done: func() { pr.release(ctr) },
			}, true
		})
}

// Select evaluates σ_{k,f} over the group: the exact global k nearest
// neighbors of f, in ascending (distance, X, Y) order — byte-identical to
// the single-relation KNNSelect.
func Select(ctx context.Context, g Group, f geom.Point, k int, c *stats.Counters) []geom.Point {
	pts, _ := selectWithRadius(ctx, g, f, k, c)
	return pts
}

// selectWithRadius is Select returning also the distance from f to the
// farthest selected point (0 for an empty result) — the threshold term the
// inner join's block marking needs.
func selectWithRadius(ctx context.Context, g Group, f geom.Point, k int, c *stats.Counters) ([]geom.Point, float64) {
	if k <= 0 {
		return nil, 0
	}
	pr := acquire(ctx, g)
	defer pr.release(c)
	pr.checkpoint()
	nbr := pr.neighborhood(f, k)
	out := make([]geom.Point, len(nbr.Points))
	copy(out, nbr.Points)
	return out, nbr.FarthestDist()
}

// TwoSelects evaluates σ_{k1,f1} ∩ σ_{k2,f2} over one group with the
// 2-kNN-select refinement evaluated per shard: the smaller-k predicate runs
// first (exact global merge), and the larger predicate's per-shard locality
// admits only blocks within the search threshold derived from the first
// answer. Results are byte-identical to the single-relation TwoSelects.
// conceptual selects the Figure 16 baseline (both neighborhoods in full)
// instead.
func TwoSelects(ctx context.Context, g Group, f1 geom.Point, k1 int, f2 geom.Point, k2 int, conceptual bool, c *stats.Counters) []geom.Point {
	if k1 <= 0 || k2 <= 0 {
		return nil
	}
	pr := acquire(ctx, g)
	defer pr.release(c)
	pr.checkpoint()
	if conceptual {
		nbr1 := pr.neighborhood(f1, k1).Clone()
		nbr2 := pr.neighborhood(f2, k2)
		return nbr1.Intersect(nbr2)
	}
	if k1 > k2 {
		f1, f2 = f2, f1
		k1, k2 = k2, k1
	}
	nbr1 := pr.neighborhood(f1, k1).Clone() // survives the second query below
	if nbr1.Len() == 0 {
		return nil
	}
	nbr2 := pr.neighborhoodWithinSq(f2, k2, nbr1.FarthestDistSqTo(f2))
	return nbr1.Intersect(nbr2)
}

// Join evaluates outer ⋈kNN inner by scatter/gather: outer shard blocks fan
// out across workers, every outer point gets its exact global neighborhood
// from the merged probe, and the gather canonically sorts the pairs. The
// result is the single-relation KNNJoin's multiset in SortPairs order.
func Join(ctx context.Context, outer, inner Group, k, workers int, c *stats.Counters) []core.Pair {
	if k <= 0 {
		return nil
	}
	out := join(ctx, outer, inner, k, workers, c)
	core.SortPairs(out)
	if out == nil {
		out = []core.Pair{} // match the single-relation non-nil contract
	}
	return out
}

// join is Join without the gather sort (and without the non-nil contract):
// the two-join drivers consume its output through order-insensitive steps
// (B-component grouping, chunked fan-out) and sort only their final
// triples, so sorting the intermediate pair sets would be wasted work.
func join(ctx context.Context, outer, inner Group, k, workers int, c *stats.Counters) []core.Pair {
	return scatter(ctx, &core.PairArenas, blockUnits(ctx, outer), inner, workers, c, joinEmitter(k))
}

// joinEmitter is the plain kNN-join emitter: the exact global neighborhood
// of every point of the unit, as (point, neighbor) pairs.
func joinEmitter(k int) func(pr *probe, ctr *stats.Counters) emitFn[core.Pair] {
	return func(pr *probe, _ *stats.Counters) emitFn[core.Pair] {
		return func(u unit, dst []core.Pair) []core.Pair {
			pr.joinUnit(u, k, nil, nil, func(e1 geom.Point, nbr *locality.Neighborhood) {
				for _, e2 := range nbr.Points {
					dst = append(dst, core.Pair{Left: e1, Right: e2})
				}
			})
			return dst
		}
	}
}

// KNNSelection gathers σ_{kSel,f} over the group (the exact global σ set)
// and describes it for InnerJoin.
func KNNSelection(ctx context.Context, g Group, f geom.Point, kSel int, c *stats.Counters) core.InnerSelection {
	sel, farthest := selectWithRadius(ctx, g, f, kSel, c)
	return core.NewKNNSelection(f, sel, farthest)
}

// InnerJoin evaluates (outer ⋈kNN inner) ∩ (outer × σ(inner)) by
// scatter/gather, for a kNN-select (KNNSelection) or a range
// (core.RangeSelection — the footnote-1 extension) alike: outer blocks fan
// out with the chosen pruning algorithm, mirroring the single-relation
// ones — Conceptual (no pruning), Counting (per-tuple count prune,
// Procedure 1 summed across shards) and Block-Marking (per-outer-block
// Non-Contributing test; Theorem 1 applied with the exact global
// neighborhood of the block center, so the bound holds for the whole
// logical relation, not just one shard — and a remote block it discards is
// never fetched). Results are the single-relation multiset in SortPairs
// order.
func InnerJoin(ctx context.Context, outer, inner Group, sel core.InnerSelection, kJoin int, alg core.Algorithm,
	workers int, c *stats.Counters) []core.Pair {

	if kJoin <= 0 || sel.Contains == nil {
		return nil
	}
	blockMarking := alg == core.AlgorithmBlockMarking || alg == core.AlgorithmAuto
	var closerThan func(geom.Point) float64
	if alg == core.AlgorithmCounting {
		closerThan = sel.ThresholdSq
	}
	out := scatter(ctx, &core.PairArenas, blockUnits(ctx, outer), inner, workers, c,
		func(pr *probe, ctr *stats.Counters) emitFn[core.Pair] {
			return func(u unit, dst []core.Pair) []core.Pair {
				if blockMarking {
					if u.blk.Count() == 0 {
						return dst
					}
					center := u.blk.Center()
					nbr := pr.neighborhood(center, kJoin)
					if nbr.Len() == kJoin && sel.NonContributing(center, nbr.FarthestDist()+u.blk.Diagonal()) {
						ctr.AddBlocksPruned(1)
						return dst
					}
				}
				pr.joinUnit(u, kJoin, closerThan, ctr, func(e1 geom.Point, nbr *locality.Neighborhood) {
					for _, e2 := range nbr.Points {
						if sel.Contains(e2) {
							dst = append(dst, core.Pair{Left: e1, Right: e2})
						}
					}
				})
				return dst
			}
		})
	core.SortPairs(out)
	return out
}

// SelectOuterJoin evaluates (σ_{kSel,f}(outer)) ⋈kNN inner: the valid
// pushdown — the select gathers globally first, then the selected points'
// joins fan out in chunks. Results are the single-relation multiset in
// SortPairs order.
func SelectOuterJoin(ctx context.Context, outer, inner Group, f geom.Point, kSel, kJoin, workers int, c *stats.Counters) []core.Pair {
	if kSel <= 0 || kJoin <= 0 {
		return nil
	}
	sel := Select(ctx, outer, f, kSel, c)
	out := scatter(ctx, &core.PairArenas, pointUnits(sel, workers), inner, workers, c, joinEmitter(kJoin))
	core.SortPairs(out)
	if out == nil {
		out = []core.Pair{}
	}
	return out
}

// Unchained evaluates (a ⋈kNN b) ∩_B (c ⋈kNN b): both joins scatter/gather
// independently (the conceptually correct plan — evaluating either "first"
// would be invalid) and intersect on the shared B component. Results are the
// single-relation multiset in SortTriples order.
func Unchained(ctx context.Context, a, b, cg Group, kAB, kCB, workers int, c *stats.Counters) []core.Triple {
	if kAB <= 0 || kCB <= 0 {
		return nil
	}
	abPairs := join(ctx, a, b, kAB, workers, c)
	cbPairs := join(ctx, cg, b, kCB, workers, c)
	out := core.IntersectOnB(abPairs, cbPairs)
	core.SortTriples(out)
	return out
}

// Chained evaluates (a ⋈kNN b) ∩_B (b ⋈kNN c) with the nested-join plan
// (QEP3 + cache, the paper's winner): the first join scatter/gathers, then
// its pairs fan out in chunks, each worker computing (or fetching from its
// private cache) the exact global C-neighborhood of each distinct b value.
// Results are the single-relation multiset in SortTriples order.
func Chained(ctx context.Context, a, b, cg Group, kAB, kBC, workers int, c *stats.Counters) []core.Triple {
	if kAB <= 0 || kBC <= 0 {
		return nil
	}
	abPairs := join(ctx, a, b, kAB, workers, c)
	out := scatter(ctx, &core.TripleArenas, pairUnits(abPairs, workers), cg, workers, c,
		func(pr *probe, ctr *stats.Counters) emitFn[core.Triple] {
			cache := make(map[geom.Point][]geom.Point)
			return func(u unit, dst []core.Triple) []core.Triple {
				// The unit's distinct uncached B values, in first-occurrence
				// order, are one join unit of their own — over remote
				// members, one focal group.
				var misses []geom.Point
				for _, p := range u.pairs {
					if _, ok := cache[p.Right]; ok {
						ctr.AddCacheHit()
						continue
					}
					ctr.AddCacheMiss()
					cache[p.Right] = nil
					misses = append(misses, p.Right)
				}
				pr.joinUnit(unit{pts: misses}, kBC, nil, nil, func(b geom.Point, nbr *locality.Neighborhood) {
					cache[b] = append([]geom.Point(nil), nbr.Points...)
				})
				for _, p := range u.pairs {
					for _, cp := range cache[p.Right] {
						dst = append(dst, core.Triple{A: p.Left, B: p.Right, C: cp})
					}
				}
				return dst
			}
		})
	core.SortTriples(out)
	return out
}
