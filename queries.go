package twoknn

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/shard"
)

// shardedExplain renders the EXPLAIN header for a scatter/gather execution.
func shardedExplain(op string, detail string, srcs ...Source) string {
	s := fmt.Sprintf("execution: sharded scatter/gather %s", op)
	if detail != "" {
		s += " (" + detail + ")"
	}
	s += "\n"
	for _, src := range srcs {
		n := 1
		if sh, ok := src.(*ShardedRelation); ok {
			n = sh.NumShards()
			s += fmt.Sprintf("  %s: %d points, %d %s shard(s)\n", src.Name(), src.Len(), n, sh.Policy())
		} else {
			s += fmt.Sprintf("  %s: %d points, un-sharded\n", src.Name(), src.Len())
		}
	}
	return s
}

// allSingle reports whether every source is a single un-sharded relation,
// returning the backing relations when so.
func allSingle(srcs ...Source) ([]*Relation, bool) {
	rels := make([]*Relation, len(srcs))
	for i, s := range srcs {
		r := s.singleRelation()
		if r == nil {
			return nil, false
		}
		rels[i] = r
	}
	return rels, true
}

// execGroups resolves the scatter/gather views of the sources, calling
// execGroup exactly once per distinct source value so repeated arguments
// resolve to one snapshot even while the relation is being mutated.
func execGroups(srcs ...Source) []shard.Group {
	out := make([]shard.Group, len(srcs))
	for i, s := range srcs {
		reused := false
		for j := 0; j < i; j++ {
			same := srcs[j] == s
			if !same {
				// Clones share data but differ as interface values.
				if a, b := srcs[j].singleRelation(), s.singleRelation(); a != nil && b != nil && a.d == b.d {
					same = true
				}
			}
			if same {
				out[i] = out[j]
				reused = true
				break
			}
		}
		if !reused {
			out[i] = s.execGroup()
		}
	}
	return out
}

// Algorithm selects the evaluation strategy for queries with a selection on
// the inner relation of a kNN-join.
type Algorithm = core.Algorithm

// The evaluation strategies.
const (
	// AlgorithmAuto lets the optimizer choose: Counting for small outer
	// relations, Block-Marking for large ones (paper, Section 3.3).
	AlgorithmAuto = core.AlgorithmAuto

	// AlgorithmConceptual evaluates the conceptually correct plan without
	// pruning: full join, full select, intersect. Slow; kept as the
	// correctness baseline and for benchmarks.
	AlgorithmConceptual = core.AlgorithmConceptual

	// AlgorithmCounting uses the per-tuple Counting algorithm (Procedure 1).
	AlgorithmCounting = core.AlgorithmCounting

	// AlgorithmBlockMarking uses the per-block Block-Marking algorithm
	// (Procedures 2–3).
	AlgorithmBlockMarking = core.AlgorithmBlockMarking
)

// JoinOrder selects which of two unchained joins runs first; see
// UnchainedJoins.
type JoinOrder = core.JoinOrder

// The unchained join orders.
const (
	// OrderAuto orders by cluster coverage (paper, Section 4.1.2).
	OrderAuto = core.OrderAuto

	// OrderABFirst evaluates (A ⋈ B) first.
	OrderABFirst = core.OrderABFirst

	// OrderCBFirst evaluates (C ⋈ B) first.
	OrderCBFirst = core.OrderCBFirst
)

// ChainedQEP selects the evaluation plan for chained joins; see
// ChainedJoins.
type ChainedQEP = core.ChainedQEP

// The chained-join plans of the paper's Figure 13.
const (
	// ChainedAuto selects the nested join with caching.
	ChainedAuto = core.ChainedAuto

	// ChainedRightDeep materializes (B ⋈ C) first (QEP1).
	ChainedRightDeep = core.ChainedRightDeep

	// ChainedJoinIntersection runs both joins and intersects on B (QEP2).
	ChainedJoinIntersection = core.ChainedJoinIntersection

	// ChainedNestedJoin computes C-neighborhoods per joined b (QEP3).
	ChainedNestedJoin = core.ChainedNestedJoin

	// ChainedNestedJoinCached is QEP3 with the neighborhood cache.
	ChainedNestedJoinCached = core.ChainedNestedJoinCached
)

// QueryOption configures a query evaluation.
type QueryOption func(*queryConfig)

type queryConfig struct {
	algorithm         Algorithm
	countingThreshold int
	order             JoinOrder
	chained           ChainedQEP
	exhaustive        bool
	concurrency       int
	ctx               context.Context
	stats             *Stats
	explain           *string
	partial           bool
}

func applyOptions(opts []QueryOption) queryConfig {
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithAlgorithm forces the evaluation strategy for SelectInnerJoin and
// RangeInnerJoin (default AlgorithmAuto).
func WithAlgorithm(a Algorithm) QueryOption {
	return func(c *queryConfig) { c.algorithm = a }
}

// WithCountingThreshold overrides the outer-relation cardinality at which
// AlgorithmAuto switches from Counting to Block-Marking.
func WithCountingThreshold(n int) QueryOption {
	return func(c *queryConfig) { c.countingThreshold = n }
}

// WithJoinOrder forces the first join of UnchainedJoins (default OrderAuto).
func WithJoinOrder(o JoinOrder) QueryOption {
	return func(c *queryConfig) { c.order = o }
}

// WithChainedQEP forces the ChainedJoins plan (default ChainedAuto).
func WithChainedQEP(q ChainedQEP) QueryOption {
	return func(c *queryConfig) { c.chained = q }
}

// WithExhaustivePreprocessing disables the contour early-stop of
// Block-Marking preprocessing, checking every outer block individually.
// Automatic for indexes whose blocks do not tile space (R-trees).
func WithExhaustivePreprocessing() QueryOption {
	return func(c *queryConfig) { c.exhaustive = true }
}

// WithConcurrency fans one query's tuple batches out across n workers
// (n ≤ 0 selects GOMAXPROCS; the default without this option is one worker:
// sequential). Every join algorithm has a single body that takes the worker
// count — sequential evaluation is that body at one worker, not a separate
// code path — so the result is identical whatever n is, order included.
// Each extra worker borrows a searcher handle from the inner relation's
// pool and appends into a private arena, so no per-batch result allocation
// occurs.
//
// The option is honored by the join algorithms: KNNJoin, SelectInnerJoin
// (all strategies), SelectOuterJoin, RangeInnerJoin (all strategies),
// UnchainedJoins and ChainedJoins, on single and sharded relations alike.
// KNNSelect and TwoSelects evaluate one or two tuples and ignore it. On a
// relation bounded with WithMaxSearchers the fan-out degrades gracefully:
// workers that cannot obtain a handle stand down instead of blocking, and
// the query still completes.
//
// WithConcurrency parallelizes one query. Independently of it, every query
// entry point is safe to call from many goroutines against the same
// relations; use both to scale a server on top of intra-query parallelism.
func WithConcurrency(n int) QueryOption {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return func(c *queryConfig) { c.concurrency = n }
}

// WithStats accumulates operation counters for the query into s. The
// counters are atomic: one *Stats may be shared across concurrent queries
// (e.g. a server-wide total) without locking.
func WithStats(s *Stats) QueryOption {
	return func(c *queryConfig) { c.stats = s }
}

// WithExplain stores an EXPLAIN rendering of the executed plan (including
// the optimizer's reasoning) into target.
func WithExplain(target *string) QueryOption {
	return func(c *queryConfig) { c.explain = target }
}

// KNNSelect evaluates σ_{k,f}(rel): the k points of the source closest to
// the focal point f, in ascending (distance, X, Y) order. It is the
// package-level form of the Relation/ShardedRelation methods, accepting any
// Source so callers that hold a mixed dataset registry (e.g. a query server)
// dispatch uniformly. It errors on a nil source (ErrNilRelation) and
// non-positive k (ErrNonPositiveK).
func KNNSelect(rel Source, f Point, k int, opts ...QueryOption) ([]Point, error) {
	if err := checkSources(rel); err != nil {
		return nil, err
	}
	if err := checkK("k", k); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	r := rel.singleRelation()
	return runQuery(&cfg, func() ([]Point, error) {
		if r == nil {
			return shard.Select(cfg.ctx, rel.execGroup(), f, k, cfg.stats), nil
		}
		h := acquireHandle(cfg.ctx, r.snapshot().rel)
		defer h.Release()
		return core.KNNSelect(h, f, k, cfg.stats), nil
	})
}

// SelectInnerJoin evaluates the Section 3 query
//
//	(outer ⋈kNN inner) ∩ (outer × σ_{kSel,f}(inner)),
//
// returning pairs (e1, e2) where e2 is among the kJoin nearest neighbors of
// e1 AND among the kSel nearest neighbors of the focal point f. Pushing the
// select below the inner relation would be invalid (the optimizer refuses
// it; see plan.ValidateSelectPushdown); the Counting and Block-Marking
// strategies deliver the pruning instead.
func SelectInnerJoin(outer, inner Source, f Point, kJoin, kSel int, opts ...QueryOption) ([]Pair, error) {
	if err := checkSources(outer, inner); err != nil {
		return nil, err
	}
	if err := checkK("kJoin", kJoin); err != nil {
		return nil, err
	}
	if err := checkK("kSel", kSel); err != nil {
		return nil, err
	}
	return innerJoin("select-inner-join", outer, inner, kJoin, opts,
		func(cfg *queryConfig, h *core.Relation, g shard.Group) core.InnerSelection {
			if h != nil {
				return core.KNNSelection(h, f, kSel, cfg.stats)
			}
			return shard.KNNSelection(cfg.ctx, g, f, kSel, cfg.stats)
		},
		func(alg Algorithm) *plan.Node {
			return plan.SelectInnerJoinPlan(alg, outer.Name(), inner.Name(), outer.Len(), inner.Len(), kJoin, kSel)
		})
}

// innerJoin runs a kNN-join with a selection on its inner relation — the
// kNN-select of SelectInnerJoin or the range of RangeInnerJoin — once the
// arguments are validated. selection evaluates the predicate against the
// inner side the executor holds: the borrowed handle h of a single
// relation, or the scatter/gather group g (h == nil) otherwise.
func innerJoin(op string, outer, inner Source, kJoin int, opts []QueryOption,
	selection func(cfg *queryConfig, h *core.Relation, g shard.Group) core.InnerSelection,
	planNode func(alg Algorithm) *plan.Node) ([]Pair, error) {

	cfg := applyOptions(opts)
	alg, reason := plan.ChooseSelectJoinAlgorithm(cfg.algorithm, outer.Len(), cfg.countingThreshold)

	rels, single := allSingle(outer, inner)
	return runQuery(&cfg, func() ([]Pair, error) {
		if !single {
			gs := execGroups(outer, inner)
			pairs := shard.InnerJoin(cfg.ctx, gs[0], gs[1], selection(&cfg, nil, gs[1]), kJoin,
				alg, cfg.concurrency, cfg.stats)
			if cfg.explain != nil {
				*cfg.explain = shardedExplain(op, fmt.Sprintf("strategy %s: %s", alg, reason), outer, inner)
			}
			return pairs, nil
		}

		// Every strategy probes only the inner relation's searcher; the outer
		// side is scanned through its immutable snapshot and needs no handle.
		co, ci := snapshotPair(rels[0], rels[1])
		hi := acquireHandle(cfg.ctx, ci)
		defer hi.Release()
		pairs := core.SelectInnerJoin(co, hi, selection(&cfg, hi, shard.Group{}), kJoin, alg,
			core.BlockMarkingOptions{Exhaustive: cfg.exhaustive}, cfg.concurrency, cfg.stats)
		if cfg.explain != nil {
			*cfg.explain = fmt.Sprintf("strategy: %s (%s)\n%s", alg, reason, planNode(alg).Explain())
		}
		return pairs, nil
	})
}

// SelectOuterJoin evaluates a kNN-select on the outer relation of a
// kNN-join: (σ_{kSel,f}(outer)) ⋈kNN inner. The pushdown is valid (paper,
// Figure 3), so the select runs first and only selected points join.
func SelectOuterJoin(outer, inner Source, f Point, kSel, kJoin int, opts ...QueryOption) ([]Pair, error) {
	if err := checkSources(outer, inner); err != nil {
		return nil, err
	}
	if err := checkK("kSel", kSel); err != nil {
		return nil, err
	}
	if err := checkK("kJoin", kJoin); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	rels, single := allSingle(outer, inner)
	return runQuery(&cfg, func() ([]Pair, error) {
		if !single {
			gs := execGroups(outer, inner)
			pairs := shard.SelectOuterJoin(cfg.ctx, gs[0], gs[1], f, kSel, kJoin,
				cfg.concurrency, cfg.stats)
			if cfg.explain != nil {
				*cfg.explain = shardedExplain("select-outer-join", "valid pushdown: select gathers first", outer, inner)
			}
			return pairs, nil
		}
		co, ci := snapshotPair(rels[0], rels[1])
		ho, hi := acquireHandlePair(cfg.ctx, co, ci)
		defer core.ReleasePair(ho, hi)
		pairs := core.SelectOuterJoin(ho, hi, f, kSel, kJoin, cfg.concurrency, cfg.stats)
		if cfg.explain != nil {
			node := plan.SelectOuterJoinPlan(outer.Name(), inner.Name(), outer.Len(), inner.Len(), kSel, kJoin)
			*cfg.explain = node.Explain()
		}
		return pairs, nil
	})
}

// UnchainedJoins evaluates the Section 4.1 query
//
//	(a ⋈kNN b) ∩B (c ⋈kNN b),
//
// returning triples (x, y, z) where y is among the kAB nearest neighbors of
// x in b AND among the kCB nearest neighbors of z in b. Both joins are
// evaluated independently (evaluating one over the other's output would be
// invalid); Candidate/Safe block marking prunes the second join's outer
// relation, and OrderAuto starts with the more clustered outer relation.
// When both outer relations look uniform the optimizer skips the
// preprocessing entirely (it would cost without payoff, Section 4.1.2).
func UnchainedJoins(a, b, c Source, kAB, kCB int, opts ...QueryOption) ([]Triple, error) {
	if err := checkSources(a, b, c); err != nil {
		return nil, err
	}
	if err := checkK("kAB", kAB); err != nil {
		return nil, err
	}
	if err := checkK("kCB", kCB); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	rels, single := allSingle(a, b, c)
	return runQuery(&cfg, func() ([]Triple, error) {
		if !single {
			// Scatter/gather evaluates both joins independently (the
			// conceptually correct plan); WithJoinOrder only reorders work, so
			// the sharded path ignores it without changing the answer.
			gs := execGroups(a, b, c)
			triples := shard.Unchained(cfg.ctx, gs[0], gs[1], gs[2], kAB, kCB,
				cfg.concurrency, cfg.stats)
			if cfg.explain != nil {
				*cfg.explain = shardedExplain("unchained-joins", "both joins evaluated independently, intersected on B", a, b, c)
			}
			return triples, nil
		}
		cs := snapshotCores(rels)
		covA := core.EstimateClusterCoverage(cs[0])
		covC := core.EstimateClusterCoverage(cs[2])
		order, prune, reason := plan.ChooseJoinOrder(cfg.order, covA, covC)

		// Both unchained joins probe only B's searcher; A and C are scanned
		// through their immutable snapshots and need no handles.
		hb := acquireHandle(cfg.ctx, cs[1])
		defer hb.Release()

		triples := core.Unchained(cs[0], hb, cs[2], kAB, kCB, prune, order, cfg.concurrency, cfg.stats)
		if cfg.explain != nil {
			node := plan.UnchainedPlan(order, prune, a.Name(), b.Name(), c.Name(), a.Len(), b.Len(), c.Len(), kAB, kCB)
			*cfg.explain = fmt.Sprintf("order: %s (%s)\n%s", order, reason, node.Explain())
		}
		return triples, nil
	})
}

// ChainedJoins evaluates the Section 4.2 query over chained joins a→b→c,
//
//	(a ⋈kNN b) ∩B (b ⋈kNN c),
//
// returning triples (x, y, z) where y is among the kAB nearest neighbors of
// x and z is among the kBC nearest neighbors of y. All plans of the paper's
// Figure 13 are available and produce identical results; ChainedAuto uses
// the nested join with a neighborhood cache, the paper's winner.
func ChainedJoins(a, b, c Source, kAB, kBC int, opts ...QueryOption) ([]Triple, error) {
	if err := checkSources(a, b, c); err != nil {
		return nil, err
	}
	if err := checkK("kAB", kAB); err != nil {
		return nil, err
	}
	if err := checkK("kBC", kBC); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	rels, single := allSingle(a, b, c)
	return runQuery(&cfg, func() ([]Triple, error) {
		if !single {
			// All Figure 13 QEPs produce identical triples; the scatter/gather
			// path always runs the nested join with per-worker caches (the
			// paper's winner), so WithChainedQEP does not change the answer.
			gs := execGroups(a, b, c)
			triples := shard.Chained(cfg.ctx, gs[0], gs[1], gs[2], kAB, kBC,
				cfg.concurrency, cfg.stats)
			if cfg.explain != nil {
				*cfg.explain = shardedExplain("chained-joins", "nested join with per-worker neighborhood caches", a, b, c)
			}
			return triples, nil
		}
		qep, reason := plan.ChooseChainedQEP(cfg.chained)
		cs := snapshotCores(rels)
		// The chain probes B's and C's searchers (A is only scanned), so two
		// handles suffice; AcquirePair dedups b == c and orders the blocking
		// acquisitions deadlock-free.
		hb, hc := acquireHandlePair(cfg.ctx, cs[1], cs[2])
		defer core.ReleasePair(hb, hc)
		triples := core.Chained(cs[0], hb, hc, kAB, kBC, qep, cfg.concurrency, cfg.stats)
		if cfg.explain != nil {
			node := plan.ChainedPlan(qep, a.Name(), b.Name(), c.Name(), a.Len(), b.Len(), c.Len(), kAB, kBC)
			*cfg.explain = fmt.Sprintf("plan: %s (%s)\n%s", qep, reason, node.Explain())
		}
		return triples, nil
	})
}

// TwoSelects evaluates the Section 5 query
//
//	σ_{k1,f1}(rel) ∩ σ_{k2,f2}(rel),
//
// returning the points that are simultaneously among the k1 nearest to f1
// and the k2 nearest to f2. Evaluating one select over the other's output
// would be invalid; the 2-kNN-select algorithm evaluates the smaller-k
// predicate first and clips the larger predicate's locality to the answer's
// possible extent, making cost nearly independent of the larger k.
func TwoSelects(rel Source, f1 Point, k1 int, f2 Point, k2 int, opts ...QueryOption) ([]Point, error) {
	if err := checkSources(rel); err != nil {
		return nil, err
	}
	if err := checkK("k1", k1); err != nil {
		return nil, err
	}
	if err := checkK("k2", k2); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	r := rel.singleRelation()
	return runQuery(&cfg, func() ([]Point, error) {
		if r == nil {
			pts := shard.TwoSelects(cfg.ctx, rel.execGroup(), f1, k1, f2, k2,
				cfg.algorithm == AlgorithmConceptual, cfg.stats)
			if cfg.explain != nil {
				*cfg.explain = shardedExplain("two-selects", "smaller-k predicate first, per-shard clipped locality", rel)
			}
			return pts, nil
		}
		h := acquireHandle(cfg.ctx, r.snapshot().rel)
		defer h.Release()
		var pts []Point
		if cfg.algorithm == AlgorithmConceptual {
			pts = core.TwoSelectsConceptual(h, f1, k1, f2, k2, cfg.stats)
		} else {
			pts = core.TwoSelects(h, f1, k1, f2, k2, cfg.stats)
		}
		if cfg.explain != nil {
			node := plan.TwoSelectsPlan(cfg.algorithm != AlgorithmConceptual, rel.Name(), rel.Len(), k1, k2)
			*cfg.explain = node.Explain()
		}
		return pts, nil
	})
}

// RangeInnerJoin evaluates the footnote-1 extension of Section 3: pairs
// (e1, e2) where e2 is among the kJoin nearest neighbors of e1 AND lies in
// the query rectangle. Like the kNN-select case, pushing the range filter
// below the inner relation would be invalid; the same Counting and
// Block-Marking algorithms deliver the pruning.
func RangeInnerJoin(outer, inner Source, rng Rect, kJoin int, opts ...QueryOption) ([]Pair, error) {
	if err := checkSources(outer, inner); err != nil {
		return nil, err
	}
	if err := checkK("kJoin", kJoin); err != nil {
		return nil, err
	}
	return innerJoin("range-inner-join", outer, inner, kJoin, opts,
		func(*queryConfig, *core.Relation, shard.Group) core.InnerSelection { return core.RangeSelection(rng) },
		func(alg Algorithm) *plan.Node {
			return plan.RangeInnerJoinPlan(alg, outer.Name(), inner.Name(), outer.Len(), inner.Len(), kJoin, rng.String())
		})
}

// SortPairs orders pairs canonically (Left then Right) in place, so results
// from different strategies can be compared directly.
func SortPairs(ps []Pair) { core.SortPairs(ps) }

// SortTriples orders triples canonically (A, B, C) in place.
func SortTriples(ts []Triple) { core.SortTriples(ts) }

// SortPoints orders points canonically (X then Y) in place.
func SortPoints(ps []Point) { core.SortPoints(ps) }
