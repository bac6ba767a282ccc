package shard

import (
	"context"

	"repro/internal/batch"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/locality"
	"repro/internal/stats"
)

// runShards runs the batched driver once per in-process shard, copying each
// shard's local per-query neighborhoods out of the driver arena.
// thresholdsSq nil selects kNN mode, non-nil the within-threshold mode (see
// batch.Driver).
func runShards(pr *probe, d *batch.Driver, focals []geom.Point, k int, thresholdsSq []float64) []GroupAnswer {
	out := make([]GroupAnswer, len(pr.handles))
	for s, h := range pr.handles {
		if fault.Armed() {
			fault.OnShardProbe(s)
		}
		out[s].Offs = append(out[s].Offs, 0)
		lh := h.Local()
		var res []locality.Neighborhood
		if thresholdsSq == nil {
			res = d.KNNSelect(lh, focals, k, pr.deltas[s])
		} else {
			res = d.SelectWithinSq(lh, focals, k, thresholdsSq, pr.deltas[s])
		}
		for i := range res {
			out[s].appendNbr(&res[i])
		}
	}
	return out
}

// gatherBatch computes the exact global neighborhood of every focal over the
// group: per-shard batched local top-k (byte-identical to each shard's
// sequential searcher), then the probe's k-way merge per query — the same
// comparison (squared distance recomputed from coordinates, exact ties by
// canonical point order, co-located duplicates kept) as the single-query
// probe, so the global result is byte-identical to the sequential sharded
// path. The batched driver is a local-scan optimization (sorted focal
// groups over one shard's blocks); remote members get the batch as one
// focal group per shard instead (gather), merged the same way.
func gatherBatch(pr *probe, d *batch.Driver, focals []geom.Point, k int, thresholdsSq []float64) GroupAnswer {
	if pr.remote != nil {
		merged := GroupAnswer{Offs: []int{0}}
		pr.gather(focals, k, thresholdsSq, &merged)
		return merged
	}
	shardRes := runShards(pr, d, focals, k, thresholdsSq)
	if len(shardRes) == 1 {
		return shardRes[0]
	}
	views := make([]locality.Neighborhood, len(shardRes))
	var merged GroupAnswer
	merged.Offs = append(merged.Offs, 0)
	for i, f := range focals {
		for s := range shardRes {
			shardRes[s].view(i, f, &views[s])
			pr.nbrs[s] = &views[s]
		}
		merged.appendNbr(pr.merge(f, k))
	}
	return merged
}

// SelectBatch is the batched form of Select: the k nearest neighbors of
// every focal across all shards of the group, one result slice per focal in
// input order, byte-identical to calling Select once per focal. The
// returned slices share one backing array.
func SelectBatch(ctx context.Context, g Group, focals []geom.Point, k int, c *stats.Counters) [][]geom.Point {
	out := make([][]geom.Point, len(focals))
	if k <= 0 || len(focals) == 0 {
		return out
	}
	pr := acquire(ctx, g)
	defer pr.release(c)
	pr.checkpoint()
	d := batch.Acquire()
	defer batch.Release(d)
	res := gatherBatch(pr, d, focals, k, nil)
	pts := make([]geom.Point, len(res.Points))
	copy(pts, res.Points)
	for i := range out {
		out[i] = pts[res.Offs[i]:res.Offs[i+1]:res.Offs[i+1]]
	}
	return out
}

// TwoSelectsBatch is the batched form of TwoSelects: for every i it
// evaluates σ_{k1,f1s[i]} ∩ σ_{k2,f2s[i]}, byte-identical to calling
// TwoSelects once per pair. conceptual selects the Figure 16 baseline (both
// neighborhoods in full); the default runs the smaller-k predicate first
// and clips the larger predicate's scan by the derived search threshold,
// batched on both sides.
func TwoSelectsBatch(ctx context.Context, g Group, f1s []geom.Point, k1 int, f2s []geom.Point, k2 int, conceptual bool, c *stats.Counters) [][]geom.Point {
	out := make([][]geom.Point, len(f1s))
	if k1 <= 0 || k2 <= 0 || len(f1s) == 0 {
		return out
	}
	pr := acquire(ctx, g)
	defer pr.release(c)
	pr.checkpoint()
	d := batch.Acquire()
	defer batch.Release(d)

	if !conceptual && k1 > k2 {
		f1s, f2s = f2s, f1s
		k1, k2 = k2, k1
	}
	res1 := gatherBatch(pr, d, f1s, k1, nil)

	var res2 GroupAnswer
	if conceptual {
		res2 = gatherBatch(pr, d, f2s, k2, nil)
	} else {
		// The second predicate's scan is clipped per query by the squared
		// distance from its focal to the farthest first-predicate answer; an
		// empty first answer short-circuits the query (negative threshold).
		thresholds := make([]float64, len(f1s))
		var nb1 locality.Neighborhood
		for i := range f1s {
			res1.view(i, f1s[i], &nb1)
			if nb1.Len() == 0 {
				thresholds[i] = -1
				continue
			}
			thresholds[i] = nb1.FarthestDistSqTo(f2s[i])
		}
		res2 = gatherBatch(pr, d, f2s, k2, thresholds)
	}

	var nb1, nb2 locality.Neighborhood
	for i := range f1s {
		res1.view(i, f1s[i], &nb1)
		if !conceptual && nb1.Len() == 0 {
			continue
		}
		res2.view(i, f2s[i], &nb2)
		out[i] = nb1.Intersect(&nb2)
	}
	return out
}
