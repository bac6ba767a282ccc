package twoknn

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/locality"
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
	r := rel.singleRelation()
	return runQuery(&cfg, func() ([][]Point, error) {
		if cfg.explain != nil {
			*cfg.explain = explainPlan(r == nil, batchHeadline("knn-select-batch", r == nil,
				fmt.Sprintf("%d focals, Z-order grouped shared block walk", len(focals))), nil, nil, rel)
		}
		if r == nil {
			return shard.SelectBatch(cfg.ctx, rel.execGroup(), focals, k, cfg.stats), nil
		}
		h := acquireHandle(cfg.ctx, r.snapshot().rel)
		defer h.Release()
		d := batch.Acquire()
		defer batch.Release(d)
		out, _, _ := flattenNbrs(d.KNNSelect(h, focals, k, cfg.stats))
		return out, nil
	})
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
	r := rel.singleRelation()
	conceptual := cfg.algorithm == AlgorithmConceptual
	return runQuery(&cfg, func() ([][]Point, error) {
		if cfg.explain != nil {
			*cfg.explain = explainPlan(r == nil, batchHeadline("two-selects-batch", r == nil,
				fmt.Sprintf("%d focal pairs, smaller-k predicate first, batched clipped locality", len(f1s))), nil, nil, rel)
		}
		if r == nil {
			return shard.TwoSelectsBatch(cfg.ctx, rel.execGroup(), f1s, k1, f2s, k2, conceptual, cfg.stats), nil
		}
		h := acquireHandle(cfg.ctx, r.snapshot().rel)
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
		return out, nil
	})
}

// batchHeadline names what a batch ran on: the batched driver straight over
// a relation's index, or once per shard of a group with the exact probe
// merge gathering the per-shard answers.
func batchHeadline(op string, grouped bool, detail string) string {
	how := "batched driver on one relation"
	if grouped {
		how = "per-shard batch + gather"
	}
	return fmt.Sprintf("execution: %s, %s (%s)", op, how, detail)
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
