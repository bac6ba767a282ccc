// Package plan is the query-evaluation-plan layer above the core
// algorithms. A query's plan is one Plan value: the query itself, every
// decision the optimizer makes for it, and why. The executor is fed from
// its fields and Explain renders the same value, so what EXPLAIN prints is
// what ran.
//
// Paper mapping ("Spatial Queries with Two kNN Predicates", Aly, Aref,
// Ouzzani; VLDB 2012):
//
//   - Section 3: Auto runs Block-Marking's block prune and then Counting's
//     tuple prune over the contributing blocks, both exact, so no size rule
//     picks one; Auto and Block-Marking preprocess exhaustively where
//     Procedure 3's contour argument does not hold for the outer operand;
//   - Section 4.1.2: OrderAuto starts the unchained pair with the more
//     clustered outer relation and skips preprocessing entirely when both
//     look uniform; Procedure 4's Candidate marks need B's blocks in this
//     process, so over a remote B the second join runs unpruned;
//   - Section 4.2 / Figure 13: ChainedAuto is the nested join with the
//     neighborhood cache, the paper's winner;
//   - Section 5: two kNN-selects run the 2-kNN-select unless the conceptual
//     plan is requested.
//
// The rewrites the paper proves wrong (Figures 2, 8–9, 14–15) have no Plan:
// no field pushes a selection below the inner relation of a kNN-join or
// evaluates one predicate over another's output. internal/core keeps them
// as runnable counterexamples for the semantics tests.
//
// The package decides and describes; internal/core executes.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/geom"
)

// shape is the query a plan evaluates.
type shape uint8

const (
	knnSelect shape = iota
	knnJoin
	selectInnerJoin
	rangeInnerJoin
	selectOuterJoin
	unchained
	chained
	twoSelects
	knnSelectBatch
	twoSelectsBatch
)

// arity is the number of relations each shape reads.
var arity = [...]int{knnSelect: 1, knnJoin: 2, selectInnerJoin: 2, rangeInnerJoin: 2, selectOuterJoin: 2,
	unchained: 3, chained: 3, twoSelects: 1, knnSelectBatch: 1, twoSelectsBatch: 1}

// Input is one relation of a query as EXPLAIN names it.
type Input struct {
	Name string
	Card int
	// Layout says how the relation's points are laid out; shown when the
	// plan is Gathered.
	Layout string
}

// Plan is one query's physical plan. A constructor per shape records the
// query and the choices its options request; Optimize makes the decisions
// the resolved operands inform; the executor runs the fields, and Explain
// renders them.
type Plan struct {
	// Inputs are the query's relations in argument order. Nothing but
	// Explain reads them; the caller fills them before rendering.
	Inputs [3]Input

	// K holds the query's k's in argument order.
	K [2]int

	// Focal and Focal2 are the selections' focal points (f1 and f2 of two
	// kNN-selects), Rect the range of a range-inner-join, Focals and Focals2
	// a batch's focal lists.
	Focal, Focal2   geom.Point
	Rect            geom.Rect
	Focals, Focals2 []geom.Point

	// Algorithm is the strategy of the inner-join shapes (§3): Auto runs
	// both prunes, the others are the paper's three algorithms. The
	// two-selects shapes hold Conceptual or Auto, the 2-kNN-select of
	// Procedure 5.
	Algorithm Algorithm

	// Exhaustive makes Block-Marking's preprocessing test every non-empty
	// outer block instead of stopping at the contour: requested, or forced
	// where the contour argument does not hold (core.ContourApplies).
	Exhaustive bool

	// Order is the unchained join that runs first, and Prune whether
	// Procedure 4's Candidate/Safe marks prune the second (§4.1.2).
	Order core.JoinOrder
	Prune bool

	// QEP is the chained-join plan (§4.2, Figure 13).
	QEP core.ChainedQEP

	// Gathered reports that some operand is a shard group: join rows come
	// back in canonical order.
	Gathered bool

	shape shape
	why   reason
}

// KNNSelect plans σ_{k,f}.
func KNNSelect(f geom.Point, k int) Plan { return Plan{shape: knnSelect, Focal: f, K: [2]int{k}} }

// KNNJoin plans outer ⋈kNN inner.
func KNNJoin(k int) Plan { return Plan{shape: knnJoin, K: [2]int{k}} }

// SelectInnerJoinPlan plans (outer ⋈kNN inner) ∩ (outer × σ_{kSel,f}(inner))
// (Section 3) with the requested strategy; the caller sets Focal.
func SelectInnerJoinPlan(alg Algorithm, outer, inner string, outerCard, innerCard, kJoin, kSel int) Plan {
	return Plan{shape: selectInnerJoin, Algorithm: alg, K: [2]int{kJoin, kSel}, why: reason{requested: alg != Auto},
		Inputs: [3]Input{{Name: outer, Card: outerCard}, {Name: inner, Card: innerCard}}}
}

// RangeInnerJoin plans the footnote-1 variant of Section 3: the inner
// relation's selection is the range rng.
func RangeInnerJoin(alg Algorithm, rng geom.Rect, kJoin int) Plan {
	return Plan{shape: rangeInnerJoin, Algorithm: alg, Rect: rng, K: [2]int{kJoin}, why: reason{requested: alg != Auto}}
}

// SelectOuterJoin plans (σ_{kSel,f}(outer)) ⋈kNN inner, the valid pushdown.
func SelectOuterJoin(f geom.Point, kSel, kJoin int) Plan {
	return Plan{shape: selectOuterJoin, Focal: f, K: [2]int{kSel, kJoin}}
}

// Unchained plans (a ⋈kNN b) ∩B (c ⋈kNN b) with the requested order.
func Unchained(order core.JoinOrder, kAB, kCB int) Plan {
	return Plan{shape: unchained, Order: order, K: [2]int{kAB, kCB}, why: reason{requested: order != core.OrderAuto}}
}

// Chained plans the chain a→b→c with the requested QEP.
func Chained(qep core.ChainedQEP, kAB, kBC int) Plan {
	return Plan{shape: chained, QEP: qep, K: [2]int{kAB, kBC}, why: reason{requested: qep != core.ChainedAuto}}
}

// TwoSelects plans σ_{k1,f1} ∩ σ_{k2,f2}: the conceptual plan when alg asks
// for it, the 2-kNN-select otherwise.
func TwoSelects(alg Algorithm, f1 geom.Point, k1 int, f2 geom.Point, k2 int) Plan {
	return Plan{shape: twoSelects, Algorithm: twoSelectsAlgorithm(alg), Focal: f1, Focal2: f2, K: [2]int{k1, k2}}
}

// KNNSelectBatch plans σ_{k,f} for every focal of a batch.
func KNNSelectBatch(focals []geom.Point, k int) Plan {
	return Plan{shape: knnSelectBatch, Focals: focals, K: [2]int{k}}
}

// TwoSelectsBatch plans σ_{k1,f1s[i]} ∩ σ_{k2,f2s[i]} for every focal pair
// of a batch, like TwoSelects.
func TwoSelectsBatch(alg Algorithm, f1s []geom.Point, k1 int, f2s []geom.Point, k2 int) Plan {
	return Plan{shape: twoSelectsBatch, Algorithm: twoSelectsAlgorithm(alg), Focals: f1s, Focals2: f2s, K: [2]int{k1, k2}}
}

func twoSelectsAlgorithm(alg Algorithm) Algorithm {
	if alg == Conceptual {
		return Conceptual
	}
	return Auto
}

// Optimize makes the decisions that depend on the query's resolved
// operands — ops, in argument order — and records what it observed;
// gathered reports that some operand is a shard group.
func (p *Plan) Optimize(ops [3]core.Operand, gathered bool) {
	p.Gathered = gathered
	switch p.shape {
	case selectInnerJoin, rangeInnerJoin:
		marks := p.Algorithm == BlockMarking || p.Algorithm == Auto
		if marks && !p.Exhaustive && !core.ContourApplies(ops[0]) {
			p.Exhaustive, p.why.contourless = true, true
		}
	case unchained:
		if p.Order == core.OrderAuto {
			p.why.covA, p.why.covC = core.EstimateClusterCoverage(ops[0]), core.EstimateClusterCoverage(ops[2])
		}
		p.chooseOrder()
		if p.Prune && ops[1].Indexes() == nil {
			p.Prune, p.why.remoteB = false, true
		}
	case chained:
		// §4.2: the nested join with the neighborhood cache is the paper's
		// uniform winner (Figures 24–25).
		if !p.why.requested {
			p.QEP = core.ChainedNestedJoinCached
		}
	case knnSelectBatch, twoSelectsBatch:
		p.why.remote = gathered && ops[0].Indexes() == nil
	}
}

// Explain renders the plan as EXPLAIN prints it: what the optimizer decided
// and why, the operator tree root first, any fallback the operands forced,
// and — when Gathered — one line per input saying how it is laid out.
func (p *Plan) Explain() string {
	var sb strings.Builder
	head, root, note := p.tree()
	if head != "" {
		sb.WriteString(head + "\n")
	}
	if root != nil {
		root.render(&sb, 0)
	}
	if note != "" {
		sb.WriteString(note + "\n")
	}
	if p.Gathered {
		sb.WriteString("operands: scatter/gather over shard groups (join rows in canonical order)\n")
		for _, in := range p.Inputs[:arity[p.shape]] {
			fmt.Fprintf(&sb, "  %s: %d points, %s\n", in.Name, in.Card, in.Layout)
		}
	}
	return sb.String()
}

// tree is the plan's EXPLAIN body: the headline, the operator tree, and
// the note on a fallback the operands forced.
func (p *Plan) tree() (head string, root *node, note string) {
	a, b, c := scan(p.Inputs[0]), scan(p.Inputs[1]), scan(p.Inputs[2])
	k0, k1 := p.K[0], p.K[1]
	join := func(k int, detail string, kids ...*node) *node {
		return &node{"kNN-join", fmt.Sprintf("k=%d%s", k, detail), kids}
	}
	switch p.shape {
	case knnSelect:
		root = &node{"kNN-select", fmt.Sprintf("k=%d", k0), []*node{a}}
	case knnJoin:
		root = join(k0, "", a, b)
	case selectInnerJoin, rangeInnerJoin:
		head = fmt.Sprintf("strategy: %s (%s)", p.Algorithm, p.reason())
		op, survives, sel := "knn-join⋈select", "survives the select", &node{"kNN-select",
			fmt.Sprintf("k=%d, relation=%s (inner of join; pushdown invalid)", k1, p.Inputs[1].Name), []*node{b}}
		if p.shape == rangeInnerJoin {
			op, survives, sel = "knn-join⋈range", "lies in the rectangle",
				&node{"range-select", "rect=" + p.Rect.String() + " (inner of join; pushdown invalid)", []*node{b}}
		}
		detail := fmt.Sprintf("algorithm=%s, k⋈=%d", p.Algorithm, k0)
		preprocessing := "contour"
		if p.Exhaustive {
			preprocessing = "exhaustive"
		}
		marked := &node{"mark-blocks", preprocessing + " preprocessing over outer blocks", []*node{a}}
		switch p.Algorithm {
		case Counting:
			root = &node{op, detail, []*node{a, sel}}
		case BlockMarking:
			root = &node{op, detail, []*node{marked, sel}}
		case Auto:
			root = &node{op, detail + ", counting prunes tuples", []*node{marked, sel}}
		default:
			root = &node{"∩", "pairs whose inner point " + survives, []*node{join(k0, "", a, b), sel}}
		}
		if p.why.contourless {
			note = "preprocessing: exhaustive — the contour early-stop needs one space-tiling outer index, so every non-empty outer block is tested (§3.2)"
		}
	case selectOuterJoin:
		root = join(k1, "", &node{"kNN-select", fmt.Sprintf("k=%d (outer of join; pushdown valid)", k0), []*node{a}}, b)
	case unchained:
		head = fmt.Sprintf("order: %s (%s)", p.Order, p.reason())
		ab, cb := join(k0, "", a, b), join(k1, "", c, b)
		if p.Prune && p.Order == core.OrderCBFirst {
			ab = join(k0, ", pruned by candidate/safe marks from (C⋈B)", &node{"mark-blocks", "contributing blocks of A", []*node{a}}, b)
		} else if p.Prune {
			cb = join(k1, ", pruned by candidate/safe marks from (A⋈B)", &node{"mark-blocks", "contributing blocks of C", []*node{c}}, b)
		}
		root = &node{"∩B", "match pairs on the shared B component", []*node{ab, cb}}
		if p.why.remoteB {
			note = "pruning: off — Candidate/Safe marks need B's blocks in this process, so the second join runs unpruned (§4.1)"
		}
	case chained:
		head = fmt.Sprintf("plan: %s (%s)", p.QEP, p.reason())
		switch p.QEP {
		case core.ChainedRightDeep:
			root = join(k0, "", a, join(k1, " (materialized)", b, c))
		case core.ChainedJoinIntersection:
			root = &node{"∩B", "match pairs on the shared B component", []*node{join(k0, "", a, b), join(k1, "", b, c)}}
		case core.ChainedNestedJoin:
			root = join(k1, ", neighborhoods only for joined b", join(k0, "", a, b), c)
		default:
			root = join(k1, ", neighborhoods only for joined b, cached", join(k0, "", a, b), c)
		}
	case twoSelects:
		first, second := "k=%d (smaller k first)", "k=%d, locality clipped to the smaller neighborhood's search threshold"
		if p.Algorithm == Conceptual {
			first, second = "k=%d (full locality)", "k=%d (full locality)"
		}
		root = &node{"∩", "points in both neighborhoods", []*node{
			{"kNN-select", fmt.Sprintf(first, min(k0, k1)), []*node{a}},
			{"kNN-select", fmt.Sprintf(second, max(k0, k1)), []*node{a}}}}
	case knnSelectBatch:
		head = p.batchHead("knn-select-batch", fmt.Sprintf("%d focals", len(p.Focals)))
	case twoSelectsBatch:
		how := "smaller-k predicate first, locality clipped per pair"
		if p.Algorithm == Conceptual {
			how = "both predicates in full"
		}
		head = p.batchHead("two-selects-batch", fmt.Sprintf("%d focal pairs, %s", len(p.Focals), how))
	}
	return head, root, note
}

// batchHead names how a batch runs: a focal group on one probe, which asks
// the sequential searcher focal by focal in process and sends the whole
// group, one wave at a time, to remote shards.
func (p *Plan) batchHead(op, detail string) string {
	how := "sequential searcher focal by focal on one probe"
	if p.why.remote {
		how = "one focal group per wave on one probe"
	}
	return fmt.Sprintf("execution: %s, %s (%s)", op, how, detail)
}

// node is one operator of the rendered tree; kids are its inputs, outer
// (left) first.
type node struct {
	op, detail string
	kids       []*node
}

func scan(in Input) *node { return &node{"scan", fmt.Sprintf("%s (%d points)", in.Name, in.Card), nil} }

// render writes the operator tree root first, each input indented under
// "-> ".
func (n *node) render(sb *strings.Builder, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	if depth > 0 {
		sb.WriteString("-> ")
	}
	fmt.Fprintf(sb, "%s [%s]\n", n.op, n.detail)
	for _, k := range n.kids {
		k.render(sb, depth+1)
	}
}
