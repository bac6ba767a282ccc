package twoknn_test

import (
	"fmt"
	"strings"
	"testing"

	twoknn "repro"
)

// This file crosses the plan options with the backings: every option must
// mean the same thing — the same rows, and the same named algorithm actually
// running, observed through WithStats and EXPLAIN — whether the operands are
// single relations, in-process shard groups, a remote fleet or a mix. The
// algorithm bodies exist once (internal/core), so a backing can differ only
// in what its operands let a plan observe: those fallbacks are pinned here
// too.

// matrixBacking builds the operands of one layout. probed marks the
// operands a query holds probes on (every inner side); the rest are only
// scanned.
type matrixBacking struct {
	name  string
	build func(t *testing.T, name string, pts []twoknn.Point, probed bool) twoknn.Source

	// group: some operand is not a plain *Relation.
	group bool
}

func matrixBackings() []matrixBacking {
	single := func(t *testing.T, name string, pts []twoknn.Point, _ bool) twoknn.Source {
		rel, err := twoknn.NewRelation(name, pts, twoknn.WithBlockCapacity(16), twoknn.WithBounds(goldenBounds))
		if err != nil {
			t.Fatalf("NewRelation(%s): %v", name, err)
		}
		return rel
	}
	sharded := func(shards int, policy twoknn.ShardPolicy) func(*testing.T, string, []twoknn.Point, bool) twoknn.Source {
		return func(t *testing.T, name string, pts []twoknn.Point, _ bool) twoknn.Source {
			return buildSharded(t, name, pts, twoknn.GridIndex, shards, policy)
		}
	}
	remote := func(t *testing.T, name string, pts []twoknn.Point, _ bool) twoknn.Source {
		return dialLoopback(t, name, pts, 3, twoknn.HashSharding)
	}
	return []matrixBacking{
		{name: "single", build: single},
		{name: "hash-3", build: sharded(3, twoknn.HashSharding), group: true},
		{name: "spatial-2", build: sharded(2, twoknn.SpatialSharding), group: true},
		{name: "remote-3", build: remote, group: true},
		{name: "single-outer/remote-inner", group: true,
			build: func(t *testing.T, name string, pts []twoknn.Point, probed bool) twoknn.Source {
				if probed {
					return remote(t, name, pts, probed)
				}
				return single(t, name, pts, probed)
			}},
	}
}

func TestOptionsBackingsMatrix(t *testing.T) {
	ptsA, ptsB, ptsC, _, _ := goldenPoints(t)
	focal := twoknn.Point{X: ptsA[0].X + 7, Y: ptsA[0].Y - 5}
	rng := twoknn.NewRect(ptsA[0].X-60, ptsA[0].Y-80, ptsA[0].X+50, ptsA[0].Y+40)

	// The single-relation answers, from the plans that prune nothing.
	ref := matrixBackings()[0]
	ra, rb, rc := ref.build(t, "A", ptsA, false), ref.build(t, "B", ptsB, true), ref.build(t, "C", ptsC, false)
	wantSel, err := twoknn.SelectInnerJoin(ra, rb, focal, goldenKJoin, goldenKSel, twoknn.WithAlgorithm(twoknn.AlgorithmConceptual))
	if err != nil {
		t.Fatal(err)
	}
	wantRng, err := twoknn.RangeInnerJoin(ra, rb, rng, goldenKJoin, twoknn.WithAlgorithm(twoknn.AlgorithmConceptual))
	if err != nil {
		t.Fatal(err)
	}
	wantUnchained, err := twoknn.UnchainedJoins(ra, rb, rc, goldenKJoin, goldenKJoin, twoknn.WithJoinOrder(twoknn.OrderABFirst))
	if err != nil {
		t.Fatal(err)
	}
	wantChained, err := twoknn.ChainedJoins(ra, rb, rc, goldenKJoin, goldenKJoin, twoknn.WithChainedQEP(twoknn.ChainedJoinIntersection))
	if err != nil {
		t.Fatal(err)
	}
	if len(wantSel) == 0 || len(wantRng) == 0 || len(wantUnchained) == 0 || len(wantChained) == 0 {
		t.Fatal("a reference answer is empty: the matrix would compare nothing")
	}

	algorithms := []struct {
		name string
		opts []twoknn.QueryOption
	}{
		{"conceptual", []twoknn.QueryOption{twoknn.WithAlgorithm(twoknn.AlgorithmConceptual)}},
		{"counting", []twoknn.QueryOption{twoknn.WithAlgorithm(twoknn.AlgorithmCounting)}},
		{"block-marking", []twoknn.QueryOption{twoknn.WithAlgorithm(twoknn.AlgorithmBlockMarking)}},
		{"block-marking-exhaustive", []twoknn.QueryOption{twoknn.WithAlgorithm(twoknn.AlgorithmBlockMarking), twoknn.WithExhaustivePreprocessing()}},
		{"auto", nil},
	}
	orders := []twoknn.JoinOrder{twoknn.OrderAuto, twoknn.OrderABFirst, twoknn.OrderCBFirst}
	qeps := []twoknn.ChainedQEP{twoknn.ChainedAuto, twoknn.ChainedRightDeep, twoknn.ChainedJoinIntersection,
		twoknn.ChainedNestedJoin, twoknn.ChainedNestedJoinCached}

	for _, bk := range matrixBackings() {
		t.Run(bk.name, func(t *testing.T) {
			a := bk.build(t, "A", ptsA, false)
			b := bk.build(t, "B", ptsB, true)
			// C is scanned by the unchained joins and probed by the chained
			// ones; the mixed layout gets one of each.
			cScanned, cProbed := bk.build(t, "C", ptsC, false), bk.build(t, "C", ptsC, true)

			// run evaluates with the options plus WithStats/WithExplain at one
			// worker and again at four; rows must match the reference at both.
			type outcome struct {
				st      twoknn.Stats
				explain string
			}
			run := func(what string, opts []twoknn.QueryOption, eval func(opts ...twoknn.QueryOption)) outcome {
				t.Helper()
				var out outcome
				var st twoknn.Stats
				eval(append(opts[:len(opts):len(opts)], twoknn.WithStats(&st), twoknn.WithExplain(&out.explain))...)
				out.st = st.Snapshot()
				eval(append(opts[:len(opts):len(opts)], twoknn.WithConcurrency(4))...)
				if lines := strings.Contains(out.explain, "scatter/gather"); lines != bk.group {
					t.Errorf("%s: EXPLAIN operand lines present = %v, want %v:\n%s", what, lines, bk.group, out.explain)
				}
				return out
			}

			// Both inner-join shapes × the five strategies.
			selStats := map[string]outcome{}
			for _, alg := range algorithms {
				selStats[alg.name] = run("select-inner-join/"+alg.name, alg.opts, func(opts ...twoknn.QueryOption) {
					got, err := twoknn.SelectInnerJoin(a, b, focal, goldenKJoin, goldenKSel, opts...)
					if err != nil {
						t.Fatalf("SelectInnerJoin %s: %v", alg.name, err)
					}
					samePairs(t, "select-inner-join/"+alg.name, wantSel, got)
				})
				run("range-inner-join/"+alg.name, alg.opts, func(opts ...twoknn.QueryOption) {
					got, err := twoknn.RangeInnerJoin(a, b, rng, goldenKJoin, opts...)
					if err != nil {
						t.Fatalf("RangeInnerJoin %s: %v", alg.name, err)
					}
					samePairs(t, "range-inner-join/"+alg.name, wantRng, got)
				})
			}
			// The named strategy is the one that ran: Conceptual prunes
			// nothing, Counting skips tuples and no blocks, Block-Marking
			// prunes blocks and no tuples — on every backing.
			for name, want := range map[string][2]bool{ // {skips tuples, prunes blocks}
				"conceptual": {false, false}, "counting": {true, false},
				"block-marking": {false, true}, "block-marking-exhaustive": {false, true},
			} {
				st := selStats[name].st
				if got := [2]bool{st.OuterSkipped > 0, st.BlocksPruned > 0}; got != want {
					t.Errorf("%s: {tuples skipped, blocks pruned} = %v (%d, %d), want %v",
						name, got, st.OuterSkipped, st.BlocksPruned, want)
				}
			}
			// Procedure 3's contour needs one space-tiling outer index: the
			// single grid has it, and WithExhaustivePreprocessing turns it off;
			// a group outer does not — its plan is the exhaustive form of the
			// same body, says so, and the option changes nothing.
			bm, bmx := selStats["block-marking"], selStats["block-marking-exhaustive"]
			groupOuter := bk.group && bk.name != "single-outer/remote-inner"
			if fallback := strings.Contains(bm.explain, "preprocessing: exhaustive"); fallback != groupOuter {
				t.Errorf("block-marking EXPLAIN reports the exhaustive fallback = %v, want %v:\n%s", fallback, groupOuter, bm.explain)
			}
			if same := bm.st == bmx.st; same != groupOuter {
				t.Errorf("WithExhaustivePreprocessing left the counters unchanged = %v, want %v:\n %+v\n %+v", same, groupOuter, bm.st, bmx.st)
			}

			// Unchained × the three join orders.
			unchained := map[twoknn.JoinOrder]outcome{}
			for _, order := range orders {
				unchained[order] = run("unchained/"+order.String(), []twoknn.QueryOption{twoknn.WithJoinOrder(order)},
					func(opts ...twoknn.QueryOption) {
						got, err := twoknn.UnchainedJoins(a, b, cScanned, goldenKJoin, goldenKJoin, opts...)
						if err != nil {
							t.Fatalf("UnchainedJoins %s: %v", order, err)
						}
						sameTriples(t, "unchained/"+order.String(), wantUnchained, got)
					})
			}
			ab, cb := unchained[twoknn.OrderABFirst], unchained[twoknn.OrderCBFirst]
			// Procedure 4 tests the second join's outer blocks against the
			// first join's b's through B's neighborhoods alone, so every
			// backing prunes, a remote B included. Which relation's blocks
			// get tested and pruned is the order's whole effect.
			if !strings.Contains(ab.explain, "pruned against the b's of (A⋈B)") || strings.Contains(ab.explain, "pruning: off") {
				t.Errorf("unchained ab-first EXPLAIN does not show the pruned second join:\n%s", ab.explain)
			}
			if ab.st.Neighborhoods == cb.st.Neighborhoods {
				t.Errorf("WithJoinOrder not observed: both orders computed %d neighborhoods", ab.st.Neighborhoods)
			}

			// Chained × the five QEPs.
			chained := map[twoknn.ChainedQEP]outcome{}
			for _, qep := range qeps {
				chained[qep] = run("chained/"+qep.String(), []twoknn.QueryOption{twoknn.WithChainedQEP(qep)},
					func(opts ...twoknn.QueryOption) {
						got, err := twoknn.ChainedJoins(a, b, cProbed, goldenKJoin, goldenKJoin, opts...)
						if err != nil {
							t.Fatalf("ChainedJoins %s: %v", qep, err)
						}
						sameTriples(t, "chained/"+qep.String(), wantChained, got)
					})
			}
			cached, nested := chained[twoknn.ChainedNestedJoinCached].st, chained[twoknn.ChainedNestedJoin].st
			if cached.CacheHits == 0 || cached != chained[twoknn.ChainedAuto].st {
				t.Errorf("cached nested join: %+v, auto: %+v — want cache hits, and auto to be it",
					cached, chained[twoknn.ChainedAuto].st)
			}
			for _, qep := range []twoknn.ChainedQEP{twoknn.ChainedRightDeep, twoknn.ChainedJoinIntersection, twoknn.ChainedNestedJoin} {
				if st := chained[qep].st; st.CacheHits+st.CacheMisses != 0 {
					t.Errorf("%s has no cache, recorded %d hits and %d misses", qep, st.CacheHits, st.CacheMisses)
				}
			}
			// The uncached nested join probes C once per (a, b) pair, the
			// materializing plans once per b, the cached one once per distinct
			// joined b.
			if rd := chained[twoknn.ChainedRightDeep].st; !(nested.Neighborhoods > rd.Neighborhoods && rd.Neighborhoods > cached.Neighborhoods) {
				t.Errorf("neighborhoods: nested %d, right-deep %d, cached %d — want strictly decreasing",
					nested.Neighborhoods, rd.Neighborhoods, cached.Neighborhoods)
			}
		})
	}
}

// TestBoundedPoolsOpposedOrders runs chained queries that name two relations
// bounded at one searcher handle in opposite orders, concurrently. A query
// holds a handle only while a step probes, never two operands' at once, so
// no acquisition order can deadlock them.
func TestBoundedPoolsOpposedOrders(t *testing.T) {
	a := uniformRelation(t, "A", 200, 91)
	x := uniformRelation(t, "X", 300, 92, twoknn.WithMaxSearchers(1))
	y := uniformRelation(t, "Y", 300, 93, twoknn.WithMaxSearchers(1))
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		b, c := x, y
		if g%2 == 1 {
			b, c = y, x
		}
		go func() {
			_, err := twoknn.ChainedJoins(a, b, c, 3, 3, twoknn.WithConcurrency(2))
			errs <- err
		}()
	}
	for g := 0; g < 16; g++ {
		if err := <-errs; err != nil {
			t.Error(fmt.Errorf("chained join over bounded relations: %w", err))
		}
	}
	if n := x.OutstandingSearchers() + y.OutstandingSearchers(); n != 0 {
		t.Errorf("%d searcher handles outstanding", n)
	}
}
