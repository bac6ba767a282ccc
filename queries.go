package twoknn

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/plan"
)

// resolve binds a query's sources to the operands the executor runs on,
// under the query's context. Each distinct source is loaded exactly once —
// repeated arguments, Clones of one relation included, share one operand,
// so a concurrent mutation cannot split a query across two data versions. A
// *Relation resolves to its current snapshot, whose searcher handles the
// executor borrows per step; anything else to its shard group. gathered
// reports that some operand is a group: its blocks come in shard order, so
// join rows are then returned in canonical SortPairs/SortTriples order,
// where single relations keep scan order.
func resolve(ctx context.Context, srcs ...Source) (ops [3]core.Operand, gathered bool) {
	for i, s := range srcs {
		r := s.singleRelation()
		gathered = gathered || r == nil
		for j := 0; j < i && ops[i] == nil; j++ {
			// Clones share data but differ as interface values.
			if rj := srcs[j].singleRelation(); srcs[j] == s || r != nil && rj != nil && rj.d == r.d {
				ops[i] = ops[j]
			}
		}
		switch {
		case ops[i] != nil:
		case r != nil:
			ops[i] = core.Pooled{Relation: r.snapshot().rel, Ctx: ctx}
		default:
			ops[i] = s.execGroup().WithContext(ctx)
		}
	}
	return ops, gathered
}

// explainPlan renders a query's EXPLAIN: what the optimizer decided and why
// (headline; may be empty), the plan tree, any fallback the operands forced
// on the plan (notes), and — when some operand is a group — one line per
// source saying how it is laid out.
func explainPlan(gathered bool, headline string, node *plan.Node, notes []string, srcs ...Source) string {
	var sb strings.Builder
	if headline != "" {
		sb.WriteString(headline + "\n")
	}
	if node != nil {
		sb.WriteString(node.Explain())
	}
	for _, n := range notes {
		sb.WriteString(n + "\n")
	}
	if gathered {
		sb.WriteString("operands: scatter/gather over shard groups (join rows in canonical order)\n")
		for _, src := range srcs {
			fmt.Fprintf(&sb, "  %s: %d points, %s\n", src.Name(), src.Len(), src.layout())
		}
	}
	return sb.String()
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

// WithJoinOrder forces the first join of UnchainedJoins (default OrderAuto),
// and with it the pruned plan: the other join's outer blocks are tested
// against Candidate/Safe marks (Procedure 4).
func WithJoinOrder(o JoinOrder) QueryOption {
	return func(c *queryConfig) { c.order = o }
}

// WithChainedQEP forces the ChainedJoins plan (default ChainedAuto).
func WithChainedQEP(q ChainedQEP) QueryOption {
	return func(c *queryConfig) { c.chained = q }
}

// WithExhaustivePreprocessing disables the contour early-stop of
// Block-Marking preprocessing, checking every non-empty outer block
// individually. Automatic where the contour argument does not hold: an outer
// index whose blocks do not tile space (R-trees), a sharded or remote outer
// relation (EXPLAIN says so).
func WithExhaustivePreprocessing() QueryOption {
	return func(c *queryConfig) { c.exhaustive = true }
}

// WithConcurrency fans one query's tuple batches out across n workers
// (n ≤ 0 selects GOMAXPROCS; the default without this option is one worker:
// sequential). Every join algorithm has a single body that takes the worker
// count — sequential evaluation is that body at one worker, not a separate
// code path — so the result is identical whatever n is, order included.
// Each worker holds a probe on the inner relation — a searcher handle from
// its pool, one per shard of a sharded relation, a wave of requests in
// flight to a remote one — and appends into a private arena, so no per-batch
// result allocation occurs.
//
// The option is honored by the join algorithms: KNNJoin, SelectInnerJoin
// (all strategies), SelectOuterJoin, RangeInnerJoin (all strategies),
// UnchainedJoins and ChainedJoins, whatever backs their operands — it is the
// same body. KNNSelect and TwoSelects evaluate one or two tuples and ignore
// it. On a relation bounded with WithMaxSearchers the fan-out degrades
// gracefully: workers that cannot obtain a handle stand down instead of
// blocking, and the query still completes.
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
	if err := validate([]Source{rel}, kArg{"k", k}); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	return runQuery(&cfg, func() ([]Point, error) {
		ops, _ := resolve(cfg.ctx, rel)
		return core.KNNSelect(ops[0], f, k, cfg.stats), nil
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
	if err := validate([]Source{outer, inner}, kArg{"kJoin", kJoin}, kArg{"kSel", kSel}); err != nil {
		return nil, err
	}
	return innerJoin(outer, inner, kJoin, opts,
		func(inner core.Operand, c *Stats) core.InnerSelection { return core.KNNSelection(inner, f, kSel, c) },
		func(alg Algorithm) *plan.Node {
			return plan.SelectInnerJoinPlan(alg, outer.Name(), inner.Name(), outer.Len(), inner.Len(), kJoin, kSel)
		})
}

// innerJoin runs a kNN-join with a selection on its inner relation — the
// kNN-select of SelectInnerJoin or the range of RangeInnerJoin — once the
// arguments are validated. selection evaluates the predicate against the
// resolved inner operand.
func innerJoin(outer, inner Source, kJoin int, opts []QueryOption,
	selection func(inner core.Operand, c *Stats) core.InnerSelection,
	planNode func(alg Algorithm) *plan.Node) ([]Pair, error) {

	cfg := applyOptions(opts)
	alg, reason := plan.ChooseSelectJoinAlgorithm(cfg.algorithm, outer.Len(), cfg.countingThreshold)
	return runQuery(&cfg, func() ([]Pair, error) {
		ops, gathered := resolve(cfg.ctx, outer, inner)
		pairs := core.SelectInnerJoin(ops[0], ops[1], selection(ops[1], cfg.stats), kJoin, alg,
			core.BlockMarkingOptions{Exhaustive: cfg.exhaustive}, cfg.concurrency, cfg.stats)
		if gathered {
			core.SortPairs(pairs)
		}
		if cfg.explain != nil {
			var notes []string
			if alg == AlgorithmBlockMarking && !cfg.exhaustive && !core.ContourApplies(ops[0]) {
				notes = append(notes, "preprocessing: exhaustive — the contour early-stop needs one space-tiling outer index, so every non-empty outer block is tested (§3.2)")
			}
			*cfg.explain = explainPlan(gathered, fmt.Sprintf("strategy: %s (%s)", alg, reason), planNode(alg), notes, outer, inner)
		}
		return pairs, nil
	})
}

// SelectOuterJoin evaluates a kNN-select on the outer relation of a
// kNN-join: (σ_{kSel,f}(outer)) ⋈kNN inner. The pushdown is valid (paper,
// Figure 3), so the select runs first and only selected points join.
func SelectOuterJoin(outer, inner Source, f Point, kSel, kJoin int, opts ...QueryOption) ([]Pair, error) {
	if err := validate([]Source{outer, inner}, kArg{"kSel", kSel}, kArg{"kJoin", kJoin}); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	return runQuery(&cfg, func() ([]Pair, error) {
		ops, gathered := resolve(cfg.ctx, outer, inner)
		pairs := core.SelectOuterJoin(ops[0], ops[1], f, kSel, kJoin, cfg.concurrency, cfg.stats)
		if gathered {
			core.SortPairs(pairs)
		}
		if cfg.explain != nil {
			node := plan.SelectOuterJoinPlan(outer.Name(), inner.Name(), outer.Len(), inner.Len(), kSel, kJoin)
			*cfg.explain = explainPlan(gathered, "", node, nil, outer, inner)
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
// preprocessing entirely (it would cost without payoff, Section 4.1.2). The
// marks live on b's blocks, so a remote b — whose blocks are in other
// processes — gets the same plan without them: both joins in full, as
// EXPLAIN reports.
func UnchainedJoins(a, b, c Source, kAB, kCB int, opts ...QueryOption) ([]Triple, error) {
	if err := validate([]Source{a, b, c}, kArg{"kAB", kAB}, kArg{"kCB", kCB}); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	return runQuery(&cfg, func() ([]Triple, error) {
		ops, gathered := resolve(cfg.ctx, a, b, c)
		covA := core.EstimateClusterCoverage(ops[0])
		covC := core.EstimateClusterCoverage(ops[2])
		order, prune, reason := plan.ChooseJoinOrder(cfg.order, covA, covC)
		var notes []string
		if prune && ops[1].Indexes() == nil {
			prune = false
			notes = append(notes, "pruning: off — Candidate/Safe marks need B's blocks in this process, so the second join runs unpruned (§4.1)")
		}
		triples := core.Unchained(ops[0], ops[1], ops[2], kAB, kCB, prune, order, cfg.concurrency, cfg.stats)
		if gathered {
			core.SortTriples(triples)
		}
		if cfg.explain != nil {
			node := plan.UnchainedPlan(order, prune, a.Name(), b.Name(), c.Name(), a.Len(), b.Len(), c.Len(), kAB, kCB)
			*cfg.explain = explainPlan(gathered, fmt.Sprintf("order: %s (%s)", order, reason), node, notes, a, b, c)
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
	if err := validate([]Source{a, b, c}, kArg{"kAB", kAB}, kArg{"kBC", kBC}); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	qep, reason := plan.ChooseChainedQEP(cfg.chained)
	return runQuery(&cfg, func() ([]Triple, error) {
		ops, gathered := resolve(cfg.ctx, a, b, c)
		triples := core.Chained(ops[0], ops[1], ops[2], kAB, kBC, qep, cfg.concurrency, cfg.stats)
		if gathered {
			core.SortTriples(triples)
		}
		if cfg.explain != nil {
			node := plan.ChainedPlan(qep, a.Name(), b.Name(), c.Name(), a.Len(), b.Len(), c.Len(), kAB, kBC)
			*cfg.explain = explainPlan(gathered, fmt.Sprintf("plan: %s (%s)", qep, reason), node, nil, a, b, c)
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
	if err := validate([]Source{rel}, kArg{"k1", k1}, kArg{"k2", k2}); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	return runQuery(&cfg, func() ([]Point, error) {
		ops, gathered := resolve(cfg.ctx, rel)
		var pts []Point
		if cfg.algorithm == AlgorithmConceptual {
			pts = core.TwoSelectsConceptual(ops[0], f1, k1, f2, k2, cfg.stats)
		} else {
			pts = core.TwoSelects(ops[0], f1, k1, f2, k2, cfg.stats)
		}
		if cfg.explain != nil {
			node := plan.TwoSelectsPlan(cfg.algorithm != AlgorithmConceptual, rel.Name(), rel.Len(), k1, k2)
			*cfg.explain = explainPlan(gathered, "", node, nil, rel)
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
	if err := validate([]Source{outer, inner}, kArg{"kJoin", kJoin}); err != nil {
		return nil, err
	}
	return innerJoin(outer, inner, kJoin, opts,
		func(core.Operand, *Stats) core.InnerSelection { return core.RangeSelection(rng) },
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
