package twoknn_test

// One testing.B benchmark per figure of the paper's evaluation section
// (Figures 19–26). Every benchmark fans out into sub-benchmarks
// <x-value>/<plan>, so `go test -bench=Fig19` prints the same series the
// paper plots, with ns/op as the execution-time axis. Dataset construction
// is memoized inside internal/bench and excluded from timing via
// b.ResetTimer.
//
// The cmd/knnbench executable runs the same experiments and prints them as
// aligned tables, including the paper's expected qualitative outcome per
// figure; `-scale=paper` switches to the paper's cardinalities.

import (
	"fmt"
	"testing"

	"repro/internal/bench"
)

// benchScale lets `go test -bench . -tags` stay at CI scale; the paper
// scale is driven through cmd/knnbench where a progress report is printed.
const benchScale = bench.ScaleCI

func runFigure(b *testing.B, id string) {
	exp, ok := bench.AnyByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for _, c := range exp.Cases(benchScale) {
		for _, p := range c.Plans {
			p := p
			b.Run(fmt.Sprintf("%s=%s/%s", exp.XLabel, c.X, p.Name), func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Run(nil)
				}
			})
		}
	}
}

// BenchmarkFig19 measures the conceptual QEP vs Block-Marking for a
// kNN-select on the inner relation of a kNN-join, sweeping |outer|.
func BenchmarkFig19(b *testing.B) { runFigure(b, "fig19") }

// BenchmarkFig20 measures Counting vs Block-Marking at low outer
// cardinalities (Counting's regime).
func BenchmarkFig20(b *testing.B) { runFigure(b, "fig20") }

// BenchmarkFig21 measures Counting vs Block-Marking at high outer
// cardinalities (Block-Marking's regime).
func BenchmarkFig21(b *testing.B) { runFigure(b, "fig21") }

// BenchmarkFig22 measures the conceptual vs Block-Marking plans for two
// unchained kNN-joins with a clustered A, sweeping |C|.
func BenchmarkFig22(b *testing.B) { runFigure(b, "fig22") }

// BenchmarkFig23 measures the join-order effect for two unchained kNN-joins
// with clustered A and C, sweeping the cluster-count gap.
func BenchmarkFig23(b *testing.B) { runFigure(b, "fig23") }

// BenchmarkFig24 measures the nested-join chained QEP with vs without the
// neighborhood cache, sweeping data size.
func BenchmarkFig24(b *testing.B) { runFigure(b, "fig24") }

// BenchmarkFig25 measures the nested (cached) vs join-intersection chained
// QEPs with clustered B, sweeping the number of clusters.
func BenchmarkFig25(b *testing.B) { runFigure(b, "fig25") }

// BenchmarkFig26 measures the conceptual vs 2-kNN-select plans for two
// kNN-select predicates, sweeping log2(k2/k1).
func BenchmarkFig26(b *testing.B) { runFigure(b, "fig26") }

// BenchmarkAblationPreprocess measures contour vs exhaustive Block-Marking
// preprocessing (a design-choice ablation beyond the paper's figures).
func BenchmarkAblationPreprocess(b *testing.B) { runFigure(b, "abl-preprocess") }

// BenchmarkAblationIndexKinds measures the Block-Marking select-inner-join
// over both index families.
func BenchmarkAblationIndexKinds(b *testing.B) { runFigure(b, "abl-index") }
