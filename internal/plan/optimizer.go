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

// DefaultCountingThreshold is the outer-relation cardinality below which
// Auto picks Counting for select-inner-join queries. Section 3.3 of the
// paper: Counting wins at low outer density (no preprocessing phase),
// Block-Marking at high density (per-block instead of per-tuple overhead).
// The default reflects the crossover region observed in this repository's
// Figure 20/21 reproduction; override per query with the public API option.
const DefaultCountingThreshold = 30000

// ChooseSelectJoinAlgorithm resolves Auto for a select-inner-join over an
// outer relation of the given cardinality. Explicit choices pass through.
func ChooseSelectJoinAlgorithm(alg Algorithm, outerCard, countingThreshold int) (Algorithm, string) {
	if alg != Auto {
		return alg, "explicitly requested"
	}
	if countingThreshold <= 0 {
		countingThreshold = DefaultCountingThreshold
	}
	if outerCard <= countingThreshold {
		return Counting, fmt.Sprintf("outer cardinality %d ≤ %d: per-tuple pruning beats per-block preprocessing (§3.3)",
			outerCard, countingThreshold)
	}
	return BlockMarking, fmt.Sprintf("outer cardinality %d > %d: per-block pruning amortizes preprocessing (§3.3)",
		outerCard, countingThreshold)
}

// UniformCoverageCutoff is the cluster-coverage fraction above which a
// relation is treated as uniformly distributed for join ordering. Section
// 4.1.2: when both outer relations are uniform, Block-Marking preprocessing
// has no payoff and the conceptual independent evaluation is preferred.
const UniformCoverageCutoff = 0.85

// ChooseJoinOrder resolves the order of two unchained kNN-joins from the
// cluster coverage of their outer relations (Section 4.1.2): start with the
// more clustered (smaller-coverage) relation. The second return value
// reports whether Block-Marking is worth running at all — false when both
// relations look uniform.
func ChooseJoinOrder(order core.JoinOrder, covA, covC float64) (core.JoinOrder, bool, string) {
	if order != core.OrderAuto {
		return order, true, "explicitly requested"
	}
	bothUniform := covA >= UniformCoverageCutoff && covC >= UniformCoverageCutoff
	if bothUniform {
		return core.OrderABFirst, false,
			fmt.Sprintf("coverage A=%.2f, C=%.2f: both uniform, preprocessing has no payoff; independent evaluation (§4.1.2)", covA, covC)
	}
	if covA <= covC {
		return core.OrderABFirst, true,
			fmt.Sprintf("coverage A=%.2f ≤ C=%.2f: start with the more clustered relation (§4.1.2)", covA, covC)
	}
	return core.OrderCBFirst, true,
		fmt.Sprintf("coverage C=%.2f < A=%.2f: start with the more clustered relation (§4.1.2)", covC, covA)
}

// ChooseChainedQEP resolves the chained-join plan. Auto always selects the
// nested join with neighborhood caching — the paper's uniform winner
// (Section 4.2, Figures 24–25).
func ChooseChainedQEP(qep core.ChainedQEP) (core.ChainedQEP, string) {
	if qep != core.ChainedAuto {
		return qep, "explicitly requested"
	}
	return core.ChainedNestedJoinCached,
		"nested join avoids neighborhoods for unselected b; cache absorbs repeats (§4.2)"
}
