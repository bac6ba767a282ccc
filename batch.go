package twoknn

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/locality"
	"repro/internal/plan"
	"repro/internal/shard"
)

// KNNSelectBatch evaluates σ_{k,f}(rel) for every focal point in one batch,
// returning one result slice per focal in input order — byte-identical to
// calling KNNSelect once per focal, including the ascending (distance, X, Y)
// result order. The batch driver sorts the focals in Z-order, cuts them into
// spatially tight groups and walks the index once per block for each group,
// so dense batches amortize traversal and feed the batched distance kernels
// long spans; sparse batches degrade gracefully to sequential cost. Sharded
// sources run the batch per shard and gather through the exact probe merge.
//
// The returned slices share one backing array. It errors on a nil source
// (ErrNilRelation) and non-positive k (ErrNonPositiveK); an empty focal
// slice returns an empty, nil-error result.
func KNNSelectBatch(rel Source, focals []Point, k int, opts ...QueryOption) ([][]Point, error) {
	if err := validate([]Source{rel}, kArg{"k", k}); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	return run(&cfg, plan.KNNSelectBatch(focals, k), func(p plan.Plan, ops [3]core.Operand) [][]Point {
		single, ok := ops[0].(core.Pooled)
		if !ok {
			return shard.SelectBatch(cfg.ctx, ops[0].(shard.Group), p.Focals, p.K[0], cfg.stats)
		}
		h := acquireHandle(single.Ctx, single.Relation)
		defer h.Release()
		d := batch.Acquire()
		defer batch.Release(d)
		out, _, _ := flattenNbrs(d.KNNSelect(h, p.Focals, p.K[0], cfg.stats))
		return out
	}, rel)
}

// TwoSelectsBatch evaluates σ_{k1,f1s[i]} ∩ σ_{k2,f2s[i]} for every focal
// pair in one batch, returning one result slice per pair in input order —
// byte-identical to calling TwoSelects once per pair. Both phases run
// through the batch driver: the smaller-k predicate as a batched kNN
// select, the larger one as a batched threshold-clipped select (or both in
// full under WithAlgorithm(AlgorithmConceptual)). The focal slices must
// have equal length.
func TwoSelectsBatch(rel Source, f1s []Point, k1 int, f2s []Point, k2 int, opts ...QueryOption) ([][]Point, error) {
	if err := validate([]Source{rel}, kArg{"k1", k1}, kArg{"k2", k2}); err != nil {
		return nil, err
	}
	if len(f1s) != len(f2s) {
		return nil, fmt.Errorf("twoknn: TwoSelectsBatch focal slices differ in length (%d vs %d)", len(f1s), len(f2s))
	}
	cfg := applyOptions(opts)
	return run(&cfg, plan.TwoSelectsBatch(cfg.algorithm, f1s, k1, f2s, k2), func(p plan.Plan, ops [3]core.Operand) [][]Point {
		f1s, k1, f2s, k2 := p.Focals, p.K[0], p.Focals2, p.K[1]
		conceptual := p.Algorithm == AlgorithmConceptual
		single, ok := ops[0].(core.Pooled)
		if !ok {
			return shard.TwoSelectsBatch(cfg.ctx, ops[0].(shard.Group), f1s, k1, f2s, k2, conceptual, cfg.stats)
		}
		h := acquireHandle(single.Ctx, single.Relation)
		defer h.Release()
		d := batch.Acquire()
		defer batch.Release(d)

		if !conceptual && k1 > k2 {
			f1s, f2s = f2s, f1s
			k1, k2 = k2, k1
		}
		// Copy phase 1 out of the driver's kNN arena: the conceptual mode's
		// second kNN batch would overwrite it.
		_, pts1, off1 := flattenNbrs(d.KNNSelect(h, f1s, k1, cfg.stats))

		var res2 []locality.Neighborhood
		if conceptual {
			res2 = d.KNNSelect(h, f2s, k2, cfg.stats)
		} else {
			thresholds := make([]float64, len(f1s))
			for i := range f1s {
				if off1[i] == off1[i+1] {
					thresholds[i] = -1 // empty first answer: skip the query
					continue
				}
				nb := locality.Neighborhood{Points: pts1[off1[i]:off1[i+1]]}
				thresholds[i] = nb.FarthestDistSqTo(f2s[i])
			}
			res2 = d.SelectWithinSq(h, f2s, k2, thresholds, cfg.stats)
		}

		out := make([][]Point, len(f1s))
		for i := range f1s {
			if !conceptual && off1[i] == off1[i+1] {
				continue
			}
			nb1 := locality.Neighborhood{Points: pts1[off1[i]:off1[i+1]]}
			out[i] = nb1.Intersect(&res2[i])
		}
		return out
	}, rel)
}

// flattenNbrs copies driver results into one flat backing array, returning
// per-query slice headers, the flat array and its offsets.
func flattenNbrs(res []locality.Neighborhood) ([][]Point, []Point, []int) {
	total := 0
	for i := range res {
		total += len(res[i].Points)
	}
	pts := make([]Point, 0, total)
	off := make([]int, len(res)+1)
	for i := range res {
		pts = append(pts, res[i].Points...)
		off[i+1] = len(pts)
	}
	out := make([][]Point, len(res))
	for i := range out {
		out[i] = pts[off[i]:off[i+1]:off[i+1]]
	}
	return out, pts, off
}

// KNNSelectBatch is the method form of the package-level KNNSelectBatch.
func (r *Relation) KNNSelectBatch(focals []Point, k int, opts ...QueryOption) ([][]Point, error) {
	return KNNSelectBatch(r, focals, k, opts...)
}

// KNNSelectBatch is the method form of the package-level KNNSelectBatch.
func (sr *ShardedRelation) KNNSelectBatch(focals []Point, k int, opts ...QueryOption) ([][]Point, error) {
	return KNNSelectBatch(sr, focals, k, opts...)
}
