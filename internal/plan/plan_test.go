package plan

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/index/grid"
)

func TestExplainRendering(t *testing.T) {
	p := SelectInnerJoinPlan(Conceptual, "E1", "E2", 100, 200, 2, 3)
	out := p.Explain()

	for _, want := range []string{"∩", "kNN-join", "kNN-select", "E1 (100 points)", "E2 (200 points)", "-> "} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}

	// A headline, then the tree: indentation increases with depth.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 7 {
		t.Fatalf("expected 7 plan lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "strategy: conceptual (explicitly requested)") {
		t.Errorf("headline must name the strategy and why:\n%s", out)
	}
	if strings.HasPrefix(lines[1], " ") {
		t.Errorf("root must not be indented")
	}
	if !strings.HasPrefix(lines[2], "  -> ") || !strings.HasPrefix(lines[3], "    -> ") {
		t.Errorf("children must be indented under their parent:\n%s", out)
	}
	if strings.Contains(out, "operands:") {
		t.Errorf("a plan over single relations has no operand lines:\n%s", out)
	}
	p.Gathered = true
	p.Inputs[0].Layout, p.Inputs[1].Layout = "3 hash shard(s)", "un-sharded"
	if out := p.Explain(); !strings.Contains(out, "  E1: 100 points, 3 hash shard(s)\n  E2: 200 points, un-sharded\n") {
		t.Errorf("a gathered plan lists its inputs' layouts:\n%s", out)
	}
}

func TestChooseSelectJoinAlgorithm(t *testing.T) {
	if alg, _ := ChooseSelectJoinAlgorithm(BlockMarking, 10, 0); alg != BlockMarking {
		t.Errorf("explicit choice must pass through, got %v", alg)
	}
	// Auto is both prunes whatever the outer cardinality: the int arguments
	// are ignored.
	for _, card := range []int{100, 30001, 1 << 20} {
		if alg, reason := ChooseSelectJoinAlgorithm(Auto, card, 100); alg != Auto || !strings.Contains(reason, "block-marking, then counting") {
			t.Errorf("outer %d: Auto must stay Auto and name both prunes, got %v (%s)", card, alg, reason)
		}
	}
}

func TestChooseJoinOrder(t *testing.T) {
	order := func(requested core.JoinOrder, covA, covC float64) Plan {
		p := Unchained(requested, 2, 2)
		p.why.covA, p.why.covC = covA, covC
		p.chooseOrder()
		return p
	}
	if p := order(core.OrderCBFirst, 0.1, 0.9); p.Order != core.OrderCBFirst || !p.Prune {
		t.Errorf("explicit order must pass through and prune")
	}
	if p := order(core.OrderAuto, 0.05, 0.9); p.Order != core.OrderABFirst || !p.Prune {
		t.Errorf("clustered A must start with (A⋈B) and prune, got %v prune=%v", p.Order, p.Prune)
	}
	if p := order(core.OrderAuto, 0.9, 0.05); p.Order != core.OrderCBFirst || !p.Prune {
		t.Errorf("clustered C must start with (C⋈B) and prune, got %v prune=%v", p.Order, p.Prune)
	}
	if p := order(core.OrderAuto, 0.95, 0.92); p.Prune {
		t.Errorf("both uniform must disable pruning: %s", p.reason())
	}
}

func TestChooseChainedQEP(t *testing.T) {
	p := Chained(core.ChainedRightDeep, 2, 2)
	if p.Optimize([3]core.Operand{}, false); p.QEP != core.ChainedRightDeep {
		t.Errorf("explicit QEP must pass through")
	}
	p = Chained(core.ChainedAuto, 2, 2)
	if p.Optimize([3]core.Operand{}, false); p.QEP != core.ChainedNestedJoinCached || p.reason() == "" {
		t.Errorf("auto must choose nested+cache, got %v", p.QEP)
	}
}

func TestAlgorithmString(t *testing.T) {
	for _, a := range []Algorithm{Auto, Conceptual, Counting, BlockMarking} {
		if a.String() == "" {
			t.Errorf("Algorithm %d has empty String()", a)
		}
	}
}

// TestPlanBuilders renders one plan value per shape and decision.
func TestPlanBuilders(t *testing.T) {
	decided := func(p Plan, decide func(*Plan)) Plan {
		decide(&p)
		return p
	}
	rng := geom.NewRect(0, 0, 1, 1)
	cases := []struct {
		name string
		plan Plan
		want []string
	}{
		{"knn-select", KNNSelect(geom.Point{}, 7), []string{"kNN-select [k=7]", "-> scan"}},
		{"knn-join", KNNJoin(3), []string{"kNN-join [k=3]"}},
		{"select-inner-conceptual", SelectInnerJoinPlan(Conceptual, "M", "H", 10, 20, 2, 3), []string{"∩", "kNN-join", "kNN-select"}},
		{"select-inner-counting", SelectInnerJoinPlan(Counting, "M", "H", 10, 20, 2, 3), []string{"counting"}},
		{"select-inner-bm", SelectInnerJoinPlan(BlockMarking, "M", "H", 10, 20, 2, 3), []string{"block-marking", "mark-blocks [contour"}},
		{"select-inner-bm-exhaustive", decided(SelectInnerJoinPlan(BlockMarking, "M", "H", 10, 20, 2, 3), func(p *Plan) { p.Exhaustive = true }),
			[]string{"mark-blocks [exhaustive"}},
		{"select-inner-auto", SelectInnerJoinPlan(Auto, "M", "H", 10, 20, 2, 3),
			[]string{"strategy: auto (block-marking, then counting", "counting prunes tuples", "mark-blocks [contour"}},
		{"select-outer", SelectOuterJoin(geom.Point{}, 3, 2), []string{"pushdown valid"}},
		{"unchained-pruned", decided(Unchained(core.OrderABFirst, 2, 2), (*Plan).chooseOrder), []string{"∩B", "candidate/safe", "contributing blocks of C"}},
		{"unchained-plain", decided(Unchained(core.OrderAuto, 2, 2), func(p *Plan) { p.why.covA, p.why.covC = 0.9, 0.9; p.chooseOrder() }),
			[]string{"∩B", "both uniform"}},
		{"unchained-cb", decided(Unchained(core.OrderCBFirst, 2, 2), (*Plan).chooseOrder), []string{"contributing blocks of A"}},
		{"chained-rd", Chained(core.ChainedRightDeep, 2, 2), []string{"materialized"}},
		{"chained-ji", Chained(core.ChainedJoinIntersection, 2, 2), []string{"∩B"}},
		{"chained-nested", Chained(core.ChainedNestedJoinCached, 2, 2), []string{"cached"}},
		{"two-selects", TwoSelects(Auto, geom.Point{}, 5, geom.Point{}, 50), []string{"clipped", "smaller k first"}},
		{"two-selects-conc", TwoSelects(Conceptual, geom.Point{}, 5, geom.Point{}, 50), []string{"full locality"}},
		{"range-counting", RangeInnerJoin(Counting, rng, 2), []string{"range", "counting"}},
		{"range-conceptual", RangeInnerJoin(Conceptual, rng, 2), []string{"rectangle"}},
		{"knn-select-batch", KNNSelectBatch(make([]geom.Point, 4), 3), []string{"knn-select-batch, sequential searcher focal by focal on one probe (4 focals)"}},
		{"knn-select-batch-remote", decided(KNNSelectBatch(make([]geom.Point, 4), 3), func(p *Plan) { p.why.remote = true }),
			[]string{"knn-select-batch, one focal group per wave on one probe (4 focals)"}},
		{"two-selects-batch-conc", TwoSelectsBatch(Conceptual, make([]geom.Point, 2), 1, nil, 2), []string{"2 focal pairs, both predicates in full"}},
	}
	for _, c := range cases {
		out := c.plan.Explain()
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s: plan missing %q:\n%s", c.name, want, out)
			}
		}
	}
}

// farOperand is an operand whose blocks are in another process: no
// in-process indexes.
type farOperand struct{ *core.Relation }

func (farOperand) Indexes() []index.Index { return nil }

// TestOptimizeFallbacks: where an operand cannot give a step what it needs,
// Optimize falls back to the exhaustive or unpruned form of the same plan,
// and EXPLAIN says so.
func TestOptimizeFallbacks(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1000, 1000)
	clustered, err := datagen.Clustered(datagen.ClusterConfig{NumClusters: 2, PointsPerCluster: 100, Radius: 30, Bounds: bounds, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rel := func(pts []geom.Point) *core.Relation {
		ix, err := grid.New(pts, grid.Options{Bounds: bounds})
		if err != nil {
			t.Fatal(err)
		}
		return core.NewRelation(ix)
	}
	a, b := rel(clustered), rel(datagen.Uniform(300, bounds, 4))
	far := farOperand{b}

	p := SelectInnerJoinPlan(BlockMarking, "A", "B", a.Len(), b.Len(), 2, 3)
	if p.Optimize([3]core.Operand{a, b}, false); p.Exhaustive {
		t.Errorf("a grid outer tiles space: the contour applies")
	}
	for _, alg := range []Algorithm{BlockMarking, Auto} {
		p = SelectInnerJoinPlan(alg, "A", "B", a.Len(), b.Len(), 2, 3)
		p.Optimize([3]core.Operand{farOperand{a}, b}, true)
		if out := p.Explain(); !p.Exhaustive || !strings.Contains(out, "preprocessing: exhaustive") {
			t.Errorf("%v: an outer without an in-process index must preprocess exhaustively, and say so:\n%s", alg, out)
		}
	}
	p = SelectInnerJoinPlan(Counting, "A", "B", a.Len(), b.Len(), 2, 3)
	if p.Optimize([3]core.Operand{farOperand{a}, b}, true); p.Exhaustive {
		t.Errorf("counting marks no blocks: nothing to preprocess")
	}

	p = Unchained(core.OrderAuto, 2, 2)
	if p.Optimize([3]core.Operand{a, b, a}, false); !p.Prune || p.Order != core.OrderABFirst {
		t.Errorf("clustered outers over an in-process B prune: order %v prune %v", p.Order, p.Prune)
	}
	p = Unchained(core.OrderABFirst, 2, 2)
	p.Optimize([3]core.Operand{a, far, a}, true)
	if out := p.Explain(); p.Prune || !strings.Contains(out, "pruning: off") {
		t.Errorf("Candidate marks need B's blocks in this process:\n%s", out)
	}
}
