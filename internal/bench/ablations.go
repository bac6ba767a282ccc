package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/index/quadtree"
	"repro/internal/stats"
)

// Ablations are the experiments beyond the paper's figures that are still
// about the paper's algorithms: the contour early-stop of Block-Marking
// preprocessing (Procedure 3) and the index-agnosticism claim across the
// two index families (Section 2). They run through the same harness as the
// figures. The systems layers around the algorithms (kernels, layout, pools,
// shards, cancellation, batching, cache, overlay, transport) are timed by the
// standing benchmark in benchmark/ only, so this package stays core-only.
var Ablations = []Experiment{ablPreprocess, ablIndexKinds}

// AnyByID looks up an experiment among both figures and ablations.
func AnyByID(id string) (Experiment, bool) {
	if e, ok := ByID(id); ok {
		return e, true
	}
	for _, e := range Ablations {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- Ablation: contour early-stop vs exhaustive preprocessing ---

var ablPreprocess = Experiment{
	ID:     "abl-preprocess",
	Title:  "Block-Marking preprocessing: contour early-stop vs exhaustive block checks (select-inner-join workload)",
	XLabel: "|outer|",
	Expect: "the contour stop skips distant blocks, so it wins and widens with |outer|; both variants return identical results",
	Cases: func(scale Scale) []Case {
		innerN := 20000
		if scale == ScalePaper {
			innerN = 160000
		}
		inner := BerlinMODRelation("fig19-inner", innerN)
		var cases []Case
		for _, outerN := range sweep(scale,
			[]int{4000, 16000, 64000},
			[]int{64000, 256000, 1024000}) {
			outer := BerlinMODRelation("fig19-outer", outerN)
			cases = append(cases, Case{
				X: fmt.Sprintf("%d", outerN),
				Plans: []Plan{
					{Name: "contour", Run: func(c *stats.Counters) int {
						return len(core.SelectInnerJoinBlockMarking(outer, inner, focal, kDefault, kDefault,
							core.BlockMarkingOptions{}, c))
					}},
					{Name: "exhaustive", Run: func(c *stats.Counters) int {
						return len(core.SelectInnerJoinBlockMarking(outer, inner, focal, kDefault, kDefault,
							core.BlockMarkingOptions{Exhaustive: true}, c))
					}},
				},
			})
		}
		return cases
	},
}

// --- Ablation: index families ---

var ablIndexKinds = Experiment{
	ID:     "abl-index",
	Title:  "index-agnosticism: Block-Marking select-inner-join over a uniform grid and a quadtree",
	XLabel: "|outer|",
	Expect: "both index families return identical results; both tile space, so the contour stop runs on each",
	Cases: func(scale Scale) []Case {
		innerN := 20000
		if scale == ScalePaper {
			innerN = 160000
		}
		var cases []Case
		for _, outerN := range sweep(scale, []int{4000, 16000}, []int{64000, 256000}) {
			// Build every relation up front so dataset generation and index
			// construction stay out of the measurements.
			gridOuter := BerlinMODRelation("fig19-outer", outerN)
			gridInner := BerlinMODRelation("fig19-inner", innerN)
			quadOuter := quadtreeRelation("fig19-outer", outerN)
			quadInner := quadtreeRelation("fig19-inner", innerN)
			cases = append(cases, Case{X: fmt.Sprintf("%d", outerN), Plans: []Plan{
				{Name: "grid", Run: func(c *stats.Counters) int {
					return len(core.SelectInnerJoinBlockMarking(gridOuter, gridInner,
						focal, kDefault, kDefault, core.BlockMarkingOptions{}, c))
				}},
				{Name: "quadtree", Run: func(c *stats.Counters) int {
					return len(core.SelectInnerJoinBlockMarking(quadOuter, quadInner,
						focal, kDefault, kDefault, core.BlockMarkingOptions{}, c))
				}},
			}})
		}
		return cases
	},
}

// quadtreeRelation builds (and memoizes) a quadtree relation over a
// BerlinMOD workload.
func quadtreeRelation(role string, n int) *core.Relation {
	key := fmt.Sprintf("quadtree/%s/%d", role, n)
	datasetCache.Lock()
	if rel, ok := datasetCache.relations[key]; ok {
		datasetCache.Unlock()
		return rel
	}
	datasetCache.Unlock()
	ix, err := quadtree.New(BerlinMODPoints(role, n), quadtree.Options{LeafCapacity: DefaultPerCell, Bounds: Bounds})
	if err != nil {
		panic(fmt.Sprintf("bench: building quadtree relation: %v", err)) // fixed config; cannot fail
	}
	rel := core.NewRelation(ix)
	datasetCache.Lock()
	datasetCache.relations[key] = rel
	datasetCache.Unlock()
	return rel
}
