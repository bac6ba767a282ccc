package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/stats"
)

// Plan is one competing strategy inside an experiment case. Run executes
// the query once and returns the result cardinality (the runner checks that
// all plans of a case agree — the correctness claim behind every figure).
type Plan struct {
	Name string
	Run  func(c *stats.Counters) int
}

// Case is one x-axis position of an experiment's sweep.
type Case struct {
	X     string
	Plans []Plan
}

// Experiment is one figure of the paper's evaluation section.
type Experiment struct {
	// ID is the figure identifier, e.g. "fig19".
	ID string

	// Title describes the query and workload.
	Title string

	// XLabel names the sweep parameter.
	XLabel string

	// Expect summarizes the paper's qualitative claim for the figure; the
	// reporter prints it next to the measured series.
	Expect string

	// Cases constructs the sweep for a scale. Datasets are memoized, so
	// repeated calls are cheap.
	Cases func(scale Scale) []Case
}

// The benchmark focal point: the center of the city region, where the
// BerlinMOD-substitute network always has traffic.
var focal = geom.Point{X: 5000, Y: 5000}

// kDefault is the k value used by both predicates in the join/select
// experiments. The paper does not print its k values; 10 is the
// conventional choice and the shapes are insensitive to it.
const kDefault = 10

// Experiments lists every figure reproduction, in paper order.
var Experiments = []Experiment{fig19, fig20, fig21, fig22, fig23, fig24, fig25, fig26}

// ByID looks an experiment up by identifier.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// sweep returns the per-scale cardinality sweeps shared by several figures.
func sweep(scale Scale, ci, paper []int) []int {
	if scale == ScalePaper {
		return paper
	}
	return ci
}

// --- Figure 19: kNN-select on inner of kNN-join, conceptual vs Block-Marking ---

var fig19 = Experiment{
	ID:     "fig19",
	Title:  "kNN-select on the inner relation of a kNN-join: conceptual QEP vs Block-Marking (BerlinMOD)",
	XLabel: "|outer|",
	Expect: "Block-Marking outperforms the conceptual QEP by ~3 orders of magnitude, growing with |outer|",
	Cases: func(scale Scale) []Case {
		innerN := 20000
		if scale == ScalePaper {
			innerN = 160000
		}
		inner := BerlinMODRelation("fig19-inner", innerN)
		var cases []Case
		for _, outerN := range sweep(scale,
			[]int{2000, 4000, 8000, 16000},
			[]int{32000, 64000, 128000, 256000, 512000}) {
			outer := BerlinMODRelation("fig19-outer", outerN)
			cases = append(cases, Case{
				X: fmt.Sprintf("%d", outerN),
				Plans: []Plan{
					{Name: "conceptual", Run: func(c *stats.Counters) int {
						return len(core.SelectInnerJoinConceptual(outer, inner, focal, kDefault, kDefault, c))
					}},
					{Name: "block-marking", Run: func(c *stats.Counters) int {
						return len(core.SelectInnerJoinBlockMarking(outer, inner, focal, kDefault, kDefault, core.BlockMarkingOptions{}, c))
					}},
				},
			})
		}
		return cases
	},
}

// --- Figures 20/21: Counting vs Block-Marking at low/high outer density ---

func countingVsBlockMarking(id, expect string, ciSizes, paperSizes []int) Experiment {
	return Experiment{
		ID:     id,
		Title:  "kNN-select on the inner relation of a kNN-join: Counting vs Block-Marking (BerlinMOD)",
		XLabel: "|outer|",
		Expect: expect,
		Cases: func(scale Scale) []Case {
			innerN := 20000
			if scale == ScalePaper {
				innerN = 160000
			}
			inner := BerlinMODRelation("fig19-inner", innerN) // shared with fig19
			var cases []Case
			for _, outerN := range sweep(scale, ciSizes, paperSizes) {
				outer := BerlinMODRelation("fig19-outer", outerN)
				cases = append(cases, Case{
					X: fmt.Sprintf("%d", outerN),
					Plans: []Plan{
						{Name: "counting", Run: func(c *stats.Counters) int {
							return len(core.SelectInnerJoinCounting(outer, inner, focal, kDefault, kDefault, c))
						}},
						{Name: "block-marking", Run: func(c *stats.Counters) int {
							return len(core.SelectInnerJoinBlockMarking(outer, inner, focal, kDefault, kDefault, core.BlockMarkingOptions{}, c))
						}},
					},
				})
			}
			return cases
		},
	}
}

var fig20 = countingVsBlockMarking("fig20",
	"at low |outer| the Counting algorithm wins: Block-Marking's preprocessing does not pay off",
	[]int{250, 500, 1000, 2000},
	[]int{4000, 8000, 16000, 32000})

var fig21 = countingVsBlockMarking("fig21",
	"at high |outer| Block-Marking wins: entire blocks are excluded instead of per-tuple checks",
	[]int{8000, 16000, 32000, 64000},
	[]int{128000, 256000, 512000, 1024000})

// --- Figure 22: unchained joins, conceptual vs Block-Marking, A clustered ---

var fig22 = Experiment{
	ID:     "fig22",
	Title:  "two unchained kNN-joins (A⋈B) ∩B (C⋈B): conceptual vs Block-Marking; A clustered, B and C BerlinMOD",
	XLabel: "|C|",
	Expect: "Block-Marking outperforms the conceptual QEP by ~1 order of magnitude and stays nearly flat in |C|",
	Cases: func(scale Scale) []Case {
		// A stays small and tightly clustered: the join results it induces
		// in B are concentrated, which is what makes most of C's blocks
		// safe to prune. kAB is small so the (shared) output size does not
		// drown the plan-differentiating work — the per-point C-join
		// neighborhoods that the conceptual plan computes for all of C.
		const kAB = 2
		bN, aClusters, perCluster := 20000, 1, 200
		if scale == ScalePaper {
			bN, perCluster = 100000, 1000
		}
		a := ClusteredRelation("fig22-a", aClusters, perCluster, 200)
		b := BerlinMODRelation("fig22-b", bN)
		var cases []Case
		for _, cN := range sweep(scale,
			[]int{2000, 4000, 8000, 16000},
			[]int{32000, 64000, 128000, 256000}) {
			cRel := BerlinMODRelation("fig22-c", cN)
			cases = append(cases, Case{
				X: fmt.Sprintf("%d", cN),
				Plans: []Plan{
					{Name: "conceptual", Run: func(c *stats.Counters) int {
						return len(core.UnchainedConceptual(a, b, cRel, kAB, kDefault, c))
					}},
					{Name: "block-marking", Run: func(c *stats.Counters) int {
						return len(core.UnchainedBlockMarking(a, b, cRel, kAB, kDefault, core.OrderABFirst, c))
					}},
				},
			})
		}
		return cases
	},
}

// --- Figure 23: unchained joins, join order, A and C clustered ---

var fig23 = Experiment{
	ID:     "fig23",
	Title:  "two unchained kNN-joins, A and C clustered with equal clusters: start with (A⋈B) vs start with (C⋈B)",
	XLabel: "clusters(A)-clusters(C)",
	Expect: "starting with the relation of fewer clusters (C) is faster, increasingly so as the gap grows",
	Cases: func(scale Scale) []Case {
		bN, cClusters, perCluster := 20000, 3, 500
		maxGap := 6
		if scale == ScalePaper {
			bN, cClusters, perCluster = 100000, 4, 4000
			maxGap = 10
		}
		b := BerlinMODRelation("fig23-b", bN)
		// All clusters share one fixed placement: C owns the first
		// cClusters disks; A owns the next cClusters+gap disks, nested as
		// the gap grows. Growing the gap therefore monotonically grows A's
		// coverage while C's stays fixed — the paper's setup ("equal
		// number of points, same area, non-overlapping") with the sweep
		// isolated to a single variable.
		centers, err := datagen.ClusterCenters(2*cClusters+maxGap, 300, Bounds, 2301)
		if err != nil {
			panic(fmt.Sprintf("bench: fig23 centers: %v", err)) // fixed geometry; cannot fail
		}
		cPts, err := datagen.ClusteredAt(centers[:cClusters], perCluster, 300, 2302)
		if err != nil {
			panic(fmt.Sprintf("bench: fig23 C: %v", err))
		}
		cRel := Relation(fmt.Sprintf("fig23-c/%d/%d", cClusters, perCluster), cPts)
		var cases []Case
		for gap := 1; gap <= maxGap; gap++ {
			aPts, err := datagen.ClusteredAt(centers[cClusters:2*cClusters+gap], perCluster, 300, 2303)
			if err != nil {
				panic(fmt.Sprintf("bench: fig23 A: %v", err))
			}
			a := Relation(fmt.Sprintf("fig23-a/%d/%d", cClusters+gap, perCluster), aPts)
			cases = append(cases, Case{
				X: fmt.Sprintf("%d", gap),
				Plans: []Plan{
					{Name: "start-with-AB", Run: func(c *stats.Counters) int {
						return len(core.UnchainedBlockMarking(a, b, cRel, kDefault, kDefault, core.OrderABFirst, c))
					}},
					{Name: "start-with-CB", Run: func(c *stats.Counters) int {
						return len(core.UnchainedBlockMarking(a, b, cRel, kDefault, kDefault, core.OrderCBFirst, c))
					}},
				},
			})
		}
		return cases
	},
}

// --- Figure 24: chained joins, nested join with vs without cache ---

var fig24 = Experiment{
	ID:     "fig24",
	Title:  "two chained kNN-joins A→B→C (BerlinMOD): nested-join QEP with vs without the neighborhood cache",
	XLabel: "|A|=|B|=|C|",
	Expect: "caching the (B⋈C) neighborhoods significantly improves the nested-join QEP",
	Cases: func(scale Scale) []Case {
		var cases []Case
		for _, n := range sweep(scale,
			[]int{500, 1000, 2000, 4000},
			[]int{8000, 16000, 32000, 64000}) {
			a := BerlinMODRelation("fig24-a", n)
			b := BerlinMODRelation("fig24-b", n)
			cRel := BerlinMODRelation("fig24-c", n)
			cases = append(cases, Case{
				X: fmt.Sprintf("%d", n),
				Plans: []Plan{
					{Name: "nested-nocache", Run: func(c *stats.Counters) int {
						return len(core.ChainedJoins(a, b, cRel, kDefault, kDefault, core.ChainedNestedJoin, c))
					}},
					{Name: "nested-cached", Run: func(c *stats.Counters) int {
						return len(core.ChainedJoins(a, b, cRel, kDefault, kDefault, core.ChainedNestedJoinCached, c))
					}},
				},
			})
		}
		return cases
	},
}

// --- Figure 25: chained joins, nested (cached) vs join-intersection, clustered B ---

var fig25 = Experiment{
	ID:     "fig25",
	Title:  "two chained kNN-joins with clustered B: nested join (cached) vs join-intersection QEP",
	XLabel: "clusters(B)",
	Expect: "the nested join wins and widens its lead as clusters(B) grows: clusters unselected by A are never joined",
	Cases: func(scale Scale) []Case {
		// Moderate k values keep the (fixed-size) output from dominating
		// both plans; the differing cost is the (B ⋈ C) work, which the
		// join-intersection plan pays for every point of every cluster
		// while the nested plan pays it only for b values some a selects.
		const k = 4
		acN, perCluster := 2000, 500
		maxClusters := 8
		if scale == ScalePaper {
			acN, perCluster = 20000, 4000
		}
		a := BerlinMODRelation("fig25-a", acN)
		cRel := BerlinMODRelation("fig25-c", acN)
		var cases []Case
		for nc := 1; nc <= maxClusters; nc++ {
			b := ClusteredRelation("fig25-b", nc, perCluster, 300)
			cases = append(cases, Case{
				X: fmt.Sprintf("%d", nc),
				Plans: []Plan{
					{Name: "join-intersection", Run: func(c *stats.Counters) int {
						return len(core.ChainedJoins(a, b, cRel, k, k, core.ChainedJoinIntersection, c))
					}},
					{Name: "nested-cached", Run: func(c *stats.Counters) int {
						return len(core.ChainedJoins(a, b, cRel, k, k, core.ChainedNestedJoinCached, c))
					}},
				},
			})
		}
		return cases
	},
}

// --- Figure 26: two kNN-selects, conceptual vs 2-kNN-select ---

var fig26 = Experiment{
	ID:     "fig26",
	Title:  "two kNN-selects σ(k1=10,f1) ∩ σ(k2,f2) (BerlinMOD): conceptual vs 2-kNN-select",
	XLabel: "log2(k2/k1)",
	Expect: "the conceptual QEP degrades as k2 grows; 2-kNN-select stays nearly constant (~2 orders of magnitude at large k2)",
	Cases: func(scale Scale) []Case {
		n := 128000
		if scale == ScalePaper {
			n = 512000
		}
		// The conceptual plan's k2-locality spans ever more blocks as k2
		// grows — the overhead the clipped locality of 2-kNN-select avoids.
		// The focal points sit in the densest part of the city (a realistic
		// query posts its predicates where the data is), close together so
		// the clipped locality stays at the size of the smaller
		// neighborhood and the answer is non-empty.
		rel := BerlinMODRelation("fig26-e", n)
		f1 := densestCenter(rel)
		f2 := geom.Point{X: f1.X + 30, Y: f1.Y - 30}
		const k1 = 10
		var cases []Case
		for x := 0; x <= 7; x++ {
			k2 := k1 << x
			cases = append(cases, Case{
				X: fmt.Sprintf("%d", x),
				Plans: []Plan{
					{Name: "conceptual", Run: func(c *stats.Counters) int {
						return len(core.TwoSelectsConceptual(rel, f1, k1, f2, k2, c))
					}},
					{Name: "2-knn-select", Run: func(c *stats.Counters) int {
						return len(core.TwoSelects(rel, f1, k1, f2, k2, c))
					}},
					{Name: "procedure5", Run: func(c *stats.Counters) int {
						return len(core.TwoSelectsProcedure5(rel, f1, k1, f2, k2, c))
					}},
				},
			})
		}
		return cases
	},
}

// densestCenter returns the center of the relation's most populated block —
// a deterministic, data-adaptive focal point inside the busiest part of the
// workload.
func densestCenter(rel *core.Relation) geom.Point {
	best := rel.Ix.Blocks()[0]
	for _, b := range rel.Ix.Blocks() {
		if b.Count() > best.Count() {
			best = b
		}
	}
	return best.Center()
}
