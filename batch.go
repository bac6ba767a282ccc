package twoknn

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/plan"
)

// KNNSelectBatch evaluates σ_{k,f}(rel) for every focal point in one batch,
// returning one result slice per focal in input order — byte-identical to
// calling KNNSelect once per focal, including the ascending (distance, X, Y)
// result order, and costing the same operation counts (WithStats). The batch
// is the focal group of a kNN-join: the sequential searcher runs focal by
// focal on one borrowed handle, so the whole batch reads one snapshot of the
// relation. A sharded source probes each focal under the shard skip; a
// remote one sends the whole batch as one focal group per wave.
//
// The returned slices share one backing array. It errors on a nil source
// (ErrNilRelation), non-positive k (ErrNonPositiveK) and a NaN or infinite
// focal coordinate (ErrNonFiniteCoordinate); an empty focal slice returns an
// empty, nil-error result.
func KNNSelectBatch(rel Source, focals []Point, k int, opts ...QueryOption) ([][]Point, error) {
	if err := validate([]Source{rel}, focals, kArg{"k", k}); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	return run(&cfg, plan.KNNSelectBatch(focals, k), func(p plan.Plan, ops [3]core.Operand) [][]Point {
		return core.KNNSelectBatch(ops[0], p.Focals, p.K[0], cfg.stats)
	}, rel)
}

// TwoSelectsBatch evaluates σ_{k1,f1s[i]} ∩ σ_{k2,f2s[i]} for every focal
// pair in one batch, returning one result slice per pair in input order —
// byte-identical to calling TwoSelects once per pair, at the same operation
// counts. Each predicate runs as one focal group, as in KNNSelectBatch, on
// one handle held across both, so the batch reads one snapshot: the
// smaller-k predicate as a kNN select, the larger one clipped per pair by
// the first answer's search threshold (or both in full under
// WithAlgorithm(AlgorithmConceptual)). The focal slices must have equal
// length.
func TwoSelectsBatch(rel Source, f1s []Point, k1 int, f2s []Point, k2 int, opts ...QueryOption) ([][]Point, error) {
	if err := validate([]Source{rel}, f1s, kArg{"k1", k1}, kArg{"k2", k2}); err != nil {
		return nil, err
	}
	if err := checkFinite(f2s); err != nil {
		return nil, err
	}
	if len(f1s) != len(f2s) {
		return nil, fmt.Errorf("twoknn: TwoSelectsBatch focal slices differ in length (%d vs %d)", len(f1s), len(f2s))
	}
	cfg := applyOptions(opts)
	return run(&cfg, plan.TwoSelectsBatch(cfg.algorithm, f1s, k1, f2s, k2), func(p plan.Plan, ops [3]core.Operand) [][]Point {
		return core.TwoSelectsBatch(ops[0], p.Focals, p.K[0], p.Focals2, p.K[1], p.Algorithm == AlgorithmConceptual, cfg.stats)
	}, rel)
}

// KNNSelectBatch is the method form of the package-level KNNSelectBatch.
func (r *Relation) KNNSelectBatch(focals []Point, k int, opts ...QueryOption) ([][]Point, error) {
	return KNNSelectBatch(r, focals, k, opts...)
}

// KNNSelectBatch is the method form of the package-level KNNSelectBatch.
func (sr *ShardedRelation) KNNSelectBatch(focals []Point, k int, opts ...QueryOption) ([][]Point, error) {
	return KNNSelectBatch(sr, focals, k, opts...)
}
