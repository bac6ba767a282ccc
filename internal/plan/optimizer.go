package plan

import (
	"fmt"

	"repro/internal/core"
)

// Algorithm identifies an evaluation strategy for a select-inner-join
// query: the executor's own type, so the optimizer's choice is handed down
// as is.
type Algorithm = core.Algorithm

// The select-inner-join strategies.
const (
	// Auto runs both prunes: Block-Marking's block prune, then Counting's
	// tuple prune over the contributing blocks.
	Auto = core.AlgorithmAuto

	// Conceptual evaluates the full join, the full select, and intersects.
	Conceptual = core.AlgorithmConceptual

	// Counting is the per-tuple pruning algorithm (Procedure 1).
	Counting = core.AlgorithmCounting

	// BlockMarking is the per-block pruning algorithm (Procedures 2–3).
	BlockMarking = core.AlgorithmBlockMarking
)

// UniformCoverageCutoff is the cluster-coverage fraction above which a
// relation is treated as uniformly distributed for join ordering. Section
// 4.1.2: when both outer relations are uniform, Block-Marking preprocessing
// has no payoff and the conceptual independent evaluation is preferred.
const UniformCoverageCutoff = 0.85

// reason is what the optimizer observed when it decided, kept as data: only
// Explain formats it.
type reason struct {
	requested   bool    // the query's option named the choice: nothing to decide
	covA, covC  float64 // §4.1.2: the unchained outer relations' cluster coverages
	contourless bool    // Exhaustive was forced: no space-tiling outer index
	remote      bool    // a batch's relation is in other processes: one focal group per wave
}

// ChooseSelectJoinAlgorithm returns the strategy alg runs as, and why:
// explicit choices pass through, and Auto runs both prunes at any outer size.
// Its two int arguments (once the outer cardinality and a counting threshold)
// are ignored; they stay until benchmark/ moves off this function (ROADMAP,
// the yardstick's shims).
func ChooseSelectJoinAlgorithm(alg Algorithm, _, _ int) (Algorithm, string) {
	p := SelectInnerJoinPlan(alg, "", "", 0, 0, 0, 0)
	return p.Algorithm, p.reason()
}

// chooseOrder is Section 4.1.2: start with the more clustered
// (smaller-coverage) outer relation, and skip the preprocessing — prune
// nothing — when both look uniform. An explicit order prunes.
func (p *Plan) chooseOrder() {
	covA, covC := p.why.covA, p.why.covC
	switch {
	case p.why.requested:
		p.Prune = true
	case covA >= UniformCoverageCutoff && covC >= UniformCoverageCutoff:
		p.Order = core.OrderABFirst
	case covA <= covC:
		p.Order, p.Prune = core.OrderABFirst, true
	default:
		p.Order, p.Prune = core.OrderCBFirst, true
	}
}

// reason formats why the optimizer made the plan's decision.
func (p *Plan) reason() string {
	w := p.why
	switch {
	case w.requested:
		return "explicitly requested"
	case p.shape == chained:
		return "nested join avoids neighborhoods for unselected b; cache absorbs repeats (§4.2)"
	case p.shape == unchained && w.covA >= UniformCoverageCutoff && w.covC >= UniformCoverageCutoff:
		return fmt.Sprintf("coverage A=%.2f, C=%.2f: both uniform, preprocessing has no payoff; independent evaluation (§4.1.2)", w.covA, w.covC)
	case p.shape == unchained && p.Order == core.OrderABFirst:
		return fmt.Sprintf("coverage A=%.2f ≤ C=%.2f: start with the more clustered relation (§4.1.2)", w.covA, w.covC)
	case p.shape == unchained:
		return fmt.Sprintf("coverage C=%.2f < A=%.2f: start with the more clustered relation (§4.1.2)", w.covC, w.covA)
	default:
		return "block-marking, then counting in the contributing blocks: each prune drops only tuples that cannot join (§3)"
	}
}
