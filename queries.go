package twoknn

import (
	"context"
	"runtime"

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

// run is what every entry point does once its arguments are valid: resolve
// the sources to operands, let the plan observe them, execute it, return
// join rows in canonical order when some operand is gathered, and render
// EXPLAIN from the plan that ran. exec is the entry point's one executor
// call, fed from the plan's fields.
func run[T any](cfg *queryConfig, p plan.Plan, exec func(plan.Plan, [3]core.Operand) T, srcs ...Source) (T, error) {
	return runQuery(cfg, func() (T, error) {
		ops, gathered := resolve(cfg.ctx, srcs...)
		p.Optimize(ops, gathered)
		out := exec(p, ops)
		if gathered {
			switch rows := any(out).(type) {
			case []Pair:
				core.SortPairs(rows)
			case []Triple:
				core.SortTriples(rows)
			}
		}
		if cfg.explain != nil {
			for i, s := range srcs {
				p.Inputs[i] = plan.Input{Name: s.Name(), Card: s.Len(), Layout: s.layout()}
			}
			*cfg.explain = p.Explain()
		}
		return out, nil
	})
}

// Algorithm selects the evaluation strategy for queries with a selection on
// the inner relation of a kNN-join.
type Algorithm = core.Algorithm

// The evaluation strategies.
const (
	// AlgorithmAuto, the default, runs both of the paper's exact prunes:
	// Block-Marking's per-block one, then Counting's per-tuple one inside the
	// blocks that survive it.
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
	algorithm   Algorithm
	order       JoinOrder
	chained     ChainedQEP
	exhaustive  bool
	concurrency int
	ctx         context.Context
	stats       *Stats
	explain     *string
	partial     bool
}

func applyOptions(opts []QueryOption) queryConfig {
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithAlgorithm forces the evaluation strategy for SelectInnerJoin and
// RangeInnerJoin (default AlgorithmAuto: both prunes); the paper's three
// algorithms run alone, as its Figures 19–21 compare them.
func WithAlgorithm(a Algorithm) QueryOption {
	return func(c *queryConfig) { c.algorithm = a }
}

// WithJoinOrder forces the first join of UnchainedJoins (default OrderAuto),
// and with it the pruned plan: the other join's outer blocks are tested
// against the b's the first join produced (Procedure 4).
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
// relation with pending writes, whose delta blocks overlap its base blocks,
// or a sharded or remote outer relation (EXPLAIN says so).
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
// the optimizer's reasoning) into target. Every entry point honors it.
func WithExplain(target *string) QueryOption {
	return func(c *queryConfig) { c.explain = target }
}

// KNNSelect evaluates σ_{k,f}(rel): the k points of the source closest to
// the focal point f, in ascending (distance, X, Y) order. It is the
// package-level form of the Relation/ShardedRelation methods, accepting any
// Source so callers that hold a mixed dataset registry (e.g. a query server)
// dispatch uniformly. It errors on a nil source (ErrNilRelation),
// non-positive k (ErrNonPositiveK) and a NaN or infinite focal coordinate
// (ErrNonFiniteCoordinate).
func KNNSelect(rel Source, f Point, k int, opts ...QueryOption) ([]Point, error) {
	if err := validate([]Source{rel}, []Point{f}, kArg{"k", k}); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	return run(&cfg, plan.KNNSelect(f, k), func(p plan.Plan, ops [3]core.Operand) []Point {
		return core.KNNSelect(ops[0], p.Focal, p.K[0], cfg.stats)
	}, rel)
}

// SelectInnerJoin evaluates the Section 3 query
//
//	(outer ⋈kNN inner) ∩ (outer × σ_{kSel,f}(inner)),
//
// returning pairs (e1, e2) where e2 is among the kJoin nearest neighbors of
// e1 AND among the kSel nearest neighbors of the focal point f. Pushing the
// select below the inner relation would be invalid — the join would see
// only the selected points (paper, Figures 1–2) — so no plan does it; the
// Counting and Block-Marking strategies deliver the pruning instead; by
// default both run, Counting in the blocks Block-Marking keeps.
func SelectInnerJoin(outer, inner Source, f Point, kJoin, kSel int, opts ...QueryOption) ([]Pair, error) {
	if err := validate([]Source{outer, inner}, []Point{f}, kArg{"kJoin", kJoin}, kArg{"kSel", kSel}); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	p := plan.SelectInnerJoinPlan(cfg.algorithm, outer.Name(), inner.Name(), outer.Len(), inner.Len(), kJoin, kSel)
	p.Focal, p.Exhaustive = f, cfg.exhaustive
	return run(&cfg, p, func(p plan.Plan, ops [3]core.Operand) []Pair {
		return core.SelectInnerJoin(ops[0], ops[1], core.KNNSelection(ops[1], p.Focal, p.K[1], cfg.stats), p.K[0],
			p.Algorithm, core.BlockMarkingOptions{Exhaustive: p.Exhaustive}, cfg.concurrency, cfg.stats)
	}, outer, inner)
}

// SelectOuterJoin evaluates a kNN-select on the outer relation of a
// kNN-join: (σ_{kSel,f}(outer)) ⋈kNN inner. The pushdown is valid (paper,
// Figure 3), so the select runs first and only selected points join.
func SelectOuterJoin(outer, inner Source, f Point, kSel, kJoin int, opts ...QueryOption) ([]Pair, error) {
	if err := validate([]Source{outer, inner}, []Point{f}, kArg{"kSel", kSel}, kArg{"kJoin", kJoin}); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	return run(&cfg, plan.SelectOuterJoin(f, kSel, kJoin), func(p plan.Plan, ops [3]core.Operand) []Pair {
		return core.SelectOuterJoin(ops[0], ops[1], p.Focal, p.K[0], p.K[1], cfg.concurrency, cfg.stats)
	}, outer, inner)
}

// UnchainedJoins evaluates the Section 4.1 query
//
//	(a ⋈kNN b) ∩B (c ⋈kNN b),
//
// returning triples (x, y, z) where y is among the kAB nearest neighbors of
// x in b AND among the kCB nearest neighbors of z in b. Both joins are
// evaluated independently (evaluating one over the other's output would be
// invalid); the second join's outer blocks are marked against the b's the
// first join produced, and those that cannot reach one are pruned, on every
// backing of b. OrderAuto starts with the more clustered outer relation.
// When both outer relations look uniform the optimizer skips the
// preprocessing entirely (it would cost without payoff, Section 4.1.2).
func UnchainedJoins(a, b, c Source, kAB, kCB int, opts ...QueryOption) ([]Triple, error) {
	if err := validate([]Source{a, b, c}, nil, kArg{"kAB", kAB}, kArg{"kCB", kCB}); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	return run(&cfg, plan.Unchained(cfg.order, kAB, kCB), func(p plan.Plan, ops [3]core.Operand) []Triple {
		return core.Unchained(ops[0], ops[1], ops[2], p.K[0], p.K[1], p.Prune, p.Order, cfg.concurrency, cfg.stats)
	}, a, b, c)
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
	if err := validate([]Source{a, b, c}, nil, kArg{"kAB", kAB}, kArg{"kBC", kBC}); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	return run(&cfg, plan.Chained(cfg.chained, kAB, kBC), func(p plan.Plan, ops [3]core.Operand) []Triple {
		return core.Chained(ops[0], ops[1], ops[2], p.K[0], p.K[1], p.QEP, cfg.concurrency, cfg.stats)
	}, a, b, c)
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
	if err := validate([]Source{rel}, []Point{f1, f2}, kArg{"k1", k1}, kArg{"k2", k2}); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	return run(&cfg, plan.TwoSelects(cfg.algorithm, f1, k1, f2, k2), func(p plan.Plan, ops [3]core.Operand) []Point {
		if p.Algorithm == AlgorithmConceptual {
			return core.TwoSelectsConceptual(ops[0], p.Focal, p.K[0], p.Focal2, p.K[1], cfg.stats)
		}
		return core.TwoSelects(ops[0], p.Focal, p.K[0], p.Focal2, p.K[1], cfg.stats)
	}, rel)
}

// RangeInnerJoin evaluates the footnote-1 extension of Section 3: pairs
// (e1, e2) where e2 is among the kJoin nearest neighbors of e1 AND lies in
// the query rectangle. Like the kNN-select case, pushing the range filter
// below the inner relation would be invalid; the same Counting and
// Block-Marking algorithms deliver the pruning, by default both.
func RangeInnerJoin(outer, inner Source, rng Rect, kJoin int, opts ...QueryOption) ([]Pair, error) {
	corners := []Point{{X: rng.MinX, Y: rng.MinY}, {X: rng.MaxX, Y: rng.MaxY}}
	if err := validate([]Source{outer, inner}, corners, kArg{"kJoin", kJoin}); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	p := plan.RangeInnerJoin(cfg.algorithm, rng, kJoin)
	p.Exhaustive = cfg.exhaustive
	return run(&cfg, p, func(p plan.Plan, ops [3]core.Operand) []Pair {
		return core.SelectInnerJoin(ops[0], ops[1], core.RangeSelection(p.Rect), p.K[0],
			p.Algorithm, core.BlockMarkingOptions{Exhaustive: p.Exhaustive}, cfg.concurrency, cfg.stats)
	}, outer, inner)
}

// SortPairs orders pairs canonically (Left then Right) in place, so results
// from different strategies can be compared directly.
func SortPairs(ps []Pair) { core.SortPairs(ps) }

// SortTriples orders triples canonically (A, B, C) in place.
func SortTriples(ts []Triple) { core.SortTriples(ts) }

// SortPoints orders points canonically (X then Y) in place.
func SortPoints(ps []Point) { core.SortPoints(ps) }
