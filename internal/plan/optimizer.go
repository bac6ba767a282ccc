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
	// Auto lets the optimizer choose by outer cardinality.
	Auto = core.AlgorithmAuto

	// Conceptual evaluates the full join, the full select, and intersects.
	Conceptual = core.AlgorithmConceptual

	// Counting is the per-tuple pruning algorithm (Procedure 1).
	Counting = core.AlgorithmCounting

	// BlockMarking is the per-block pruning algorithm (Procedures 2–3).
	BlockMarking = core.AlgorithmBlockMarking
)

// DefaultCountingThreshold is the outer-relation cardinality up to which
// Auto picks Counting for the inner-join shapes. Section 3.3 of the paper
// has Counting win at low outer density (no preprocessing phase) and
// Block-Marking at high density (per-block instead of per-tuple overhead),
// but names no crossover; 30000 is this package's default, not a measured
// one. Override it per query with the public API option.
const DefaultCountingThreshold = 30000

// UniformCoverageCutoff is the cluster-coverage fraction above which a
// relation is treated as uniformly distributed for join ordering. Section
// 4.1.2: when both outer relations are uniform, Block-Marking preprocessing
// has no payoff and the conceptual independent evaluation is preferred.
const UniformCoverageCutoff = 0.85

// reason is what the optimizer observed when it decided, kept as data: only
// Explain formats it.
type reason struct {
	requested   bool    // the query's option named the choice: nothing to decide
	outerCard   int     // §3.3: compared against CountingThreshold
	covA, covC  float64 // §4.1.2: the unchained outer relations' cluster coverages
	contourless bool    // Exhaustive was forced: no space-tiling outer index
	remoteB     bool    // Prune was turned off: B's blocks are in other processes
	remote      bool    // a batch's relation is in other processes: one focal group per wave
}

// ChooseSelectJoinAlgorithm resolves Auto for a select-inner-join over an
// outer relation of the given cardinality (countingThreshold ≤ 0 selects
// DefaultCountingThreshold) and says why. Explicit choices pass through.
func ChooseSelectJoinAlgorithm(alg Algorithm, outerCard, countingThreshold int) (Algorithm, string) {
	p := SelectInnerJoinPlan(alg, "", "", outerCard, 0, 0, 0)
	p.CountingThreshold = countingThreshold
	p.chooseAlgorithm(outerCard)
	return p.Algorithm, p.reason()
}

// chooseAlgorithm is Section 3.3: Counting for small outer relations,
// Block-Marking for large ones.
func (p *Plan) chooseAlgorithm(outerCard int) {
	p.why.outerCard = outerCard
	if p.CountingThreshold <= 0 {
		p.CountingThreshold = DefaultCountingThreshold
	}
	switch {
	case p.why.requested:
	case outerCard <= p.CountingThreshold:
		p.Algorithm = Counting
	default:
		p.Algorithm = BlockMarking
	}
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
	case p.Algorithm == Counting:
		return fmt.Sprintf("outer cardinality %d ≤ %d: per-tuple pruning beats per-block preprocessing (§3.3)",
			w.outerCard, p.CountingThreshold)
	default:
		return fmt.Sprintf("outer cardinality %d > %d: per-block pruning amortizes preprocessing (§3.3)",
			w.outerCard, p.CountingThreshold)
	}
}
