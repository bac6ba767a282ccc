package twoknn_test

// Micro-benchmarks for the kNN hot path: one Searcher.Neighborhood call per
// index family, and the basic kNN-join that every algorithm of the paper
// bottoms out in. These are the perf-trajectory benchmarks recorded in
// BENCH_PR*.json at the repo root; run them with
//
//	go test -bench 'KNNJoin|Neighborhood' -benchmem .
//
// Datasets come from the memoized internal/bench workloads so numbers are
// comparable across runs and across PRs.

import (
	"sync"
	"testing"

	twoknn "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/locality"
	"repro/internal/stats"
	"repro/internal/testutil"
)

// hotK is the neighborhood size used by the hot-path benchmarks, matching
// the paper's default k=10 regime.
const hotK = 10

// largeK is the larger neighborhood of the 2-kNN-select benchmarks (Fig. 26's
// k2 regime), where extracting the k-selection dominates a neighborhood.
const largeK = 640

func benchNeighborhood(b *testing.B, kind testutil.IndexKind, k int) {
	pts := bench.UniformPoints("hot/nbr", 50000)
	queries := bench.UniformPoints("hot/nbrq", 1024)
	ix, err := testutil.NewIndex(kind, pts)
	if err != nil {
		b.Fatal(err)
	}
	s := locality.NewSearcher(ix)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Neighborhood(queries[i%len(queries)], k, nil)
	}
}

func BenchmarkNeighborhoodGrid(b *testing.B)     { benchNeighborhood(b, testutil.Grid, hotK) }
func BenchmarkNeighborhoodQuadtree(b *testing.B) { benchNeighborhood(b, testutil.Quadtree, hotK) }
func BenchmarkNeighborhoodGridK640(b *testing.B) { benchNeighborhood(b, testutil.Grid, largeK) }

// BenchmarkTwoSelects measures the public 2-kNN-select, σ_{10,f} ∩
// σ_{640,f+(30,−30)}, over BerlinMOD trips: clustered along a road network,
// with co-located duplicates (50 000 points on about 10 000 positions, up to
// 154 copies of one). Focals are data points, as in Fig. 26. The second
// predicate's clipped neighborhood holds a few hundred candidates, so its
// extraction and the intersection are a large share of the query.
func BenchmarkTwoSelects(b *testing.B) {
	pts := bench.BerlinMODPoints("hot/trips", 50000)
	rel, err := twoknn.NewRelation("trips", pts)
	if err != nil {
		b.Fatal(err)
	}
	focals := make([]twoknn.Point, 1024)
	for i := range focals {
		focals[i] = pts[(i*7919)%len(pts)]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := focals[i%len(focals)]
		if _, err := twoknn.TwoSelects(rel, f, hotK, twoknn.Point{X: f.X + 30, Y: f.Y - 30}, largeK); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKNNJoin measures the full outer ⋈kNN inner join on uniform data:
// one neighborhood computation per outer point.
func BenchmarkKNNJoin(b *testing.B) {
	outer := bench.Relation("hot/outer", bench.UniformPoints("hot/outer", 10000))
	inner := bench.Relation("hot/inner", bench.UniformPoints("hot/inner", 10000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.KNNJoin(outer, inner, hotK, nil)
	}
}

// BenchmarkKNNJoinClustered measures the join with a clustered outer
// relation (the paper's Section 6.2 layout), where locality reuse matters
// most: consecutive outer points probe overlapping block sets.
func BenchmarkKNNJoinClustered(b *testing.B) {
	outer := bench.ClusteredRelation("hot/couter", 16, 640, 200)
	inner := bench.Relation("hot/inner", bench.UniformPoints("hot/inner", 10000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.KNNJoin(outer, inner, hotK, nil)
	}
}

// benchNeighborhoodContention measures per-query cost when g goroutines
// serve kNN-selects over ONE shared relation through the searcher pool —
// the contention benchmark of the concurrency layer. b.N queries are split
// evenly across the goroutines, so ns/op stays per-query and directly
// comparable across goroutine counts: flat-or-falling numbers mean the
// pool adds no serialization.
func benchNeighborhoodContention(b *testing.B, goroutines int) {
	rel := bench.Relation("hot/nbr", bench.UniformPoints("hot/nbr", 50000))
	queries := bench.UniformPoints("hot/nbrq", 1024)
	// Warm the pool so steady state is measured, not handle minting.
	var warm sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		warm.Add(1)
		go func() {
			defer warm.Done()
			h := rel.Acquire()
			h.S.Neighborhood(queries[0], hotK, nil)
			h.Release()
		}()
	}
	warm.Wait()

	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < b.N; i += goroutines {
				h := rel.Acquire()
				h.S.Neighborhood(queries[i%len(queries)], hotK, nil)
				h.Release()
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkNeighborhoodContention1(b *testing.B)  { benchNeighborhoodContention(b, 1) }
func BenchmarkNeighborhoodContention4(b *testing.B)  { benchNeighborhoodContention(b, 4) }
func BenchmarkNeighborhoodContention16(b *testing.B) { benchNeighborhoodContention(b, 16) }

// benchLayoutScan measures the raw distance-filter inner loop — the
// operation underneath every neighborhood computation — over 50k points in
// the two storage layouts: the columnar SoA span scan (flat X/Y arrays via
// Block.XYs) and an AoS shadow of the identical blocks ([]geom.Point per
// block). The ratio between the two is the PR 3 layout win at micro scale;
// the abl-layout knnbench experiment records the same comparison at
// workload scale.
func benchLayoutScan(b *testing.B, soa bool) {
	rel := bench.Relation("hot/nbr", bench.UniformPoints("hot/nbr", 50000))
	queries := bench.UniformPoints("hot/nbrq", 1024)
	blocks := rel.Ix.Blocks()
	var shadow [][]geom.Point
	if !soa {
		shadow = make([][]geom.Point, len(blocks))
		for i, blk := range blocks {
			shadow[i] = blk.AppendPoints(nil)
		}
	}
	const radiusSq = 250.0 * 250.0
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if soa {
			for _, blk := range blocks {
				sink += blk.CountWithinSq(q, radiusSq)
			}
		} else {
			for _, pts := range shadow {
				for _, p := range pts {
					if p.DistSq(q) <= radiusSq {
						sink++
					}
				}
			}
		}
	}
	_ = sink
}

func BenchmarkLayoutScanSoA(b *testing.B) { benchLayoutScan(b, true) }
func BenchmarkLayoutScanAoS(b *testing.B) { benchLayoutScan(b, false) }

// BenchmarkKNNJoinCounting measures the Counting algorithm's per-tuple scan
// plus intersection path (Procedure 1) end to end.
func BenchmarkKNNJoinCounting(b *testing.B) {
	outer := bench.Relation("hot/outer", bench.UniformPoints("hot/outer", 10000))
	inner := bench.Relation("hot/inner", bench.UniformPoints("hot/inner", 10000))
	f := geom.Point{X: 5000, Y: 5000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c stats.Counters
		core.SelectInnerJoinCounting(outer, inner, f, hotK, 64, &c)
	}
}
