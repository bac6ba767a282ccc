package twoknn_test

import (
	"fmt"
	"reflect"
	"testing"

	twoknn "repro"
	"repro/internal/kernel"
)

// Cross-kernel equivalence matrix: every query shape the repository serves
// must return byte-identical results no matter which distance-kernel
// implementation dispatches — the scalar reference or the AVX2 fast path.
// The matrix runs all five paper query shapes plus the footnote-1 range
// extension over both index kinds and both single and sharded sources,
// with block capacities above the batched-kernel grain so the fast paths
// genuinely fire inside the locality searcher's selection-heap feed, the
// Counting algorithm's threshold scans and the radius filters.

// kernelEquivSources builds single relations of every index kind plus
// hash- and spatially-sharded relations over pts, with leaves large enough
// to clear kernel.BatchGrain.
func kernelEquivSources(t *testing.T, name string, pts []twoknn.Point) map[string]twoknn.Source {
	t.Helper()
	bounds := twoknn.NewRect(0, 0, 1024, 1024)
	srcs := make(map[string]twoknn.Source)
	for _, kind := range []twoknn.IndexKind{
		twoknn.GridIndex, twoknn.QuadtreeIndex,
	} {
		rel, err := twoknn.NewRelation(name, pts,
			twoknn.WithBounds(bounds), twoknn.WithBlockCapacity(64), twoknn.WithIndexKind(kind))
		if err != nil {
			t.Fatalf("NewRelation(%v): %v", kind, err)
		}
		srcs[kind.String()] = rel
	}
	hash3, err := twoknn.NewShardedRelation(name, pts, 3,
		twoknn.WithBounds(bounds), twoknn.WithBlockCapacity(64))
	if err != nil {
		t.Fatalf("NewShardedRelation(hash): %v", err)
	}
	srcs["sharded-hash3"] = hash3
	spatial2, err := twoknn.NewShardedRelation(name, pts, 2,
		twoknn.WithBounds(bounds), twoknn.WithBlockCapacity(64),
		twoknn.WithShardPolicy(twoknn.SpatialSharding))
	if err != nil {
		t.Fatalf("NewShardedRelation(spatial): %v", err)
	}
	srcs["sharded-spatial2"] = spatial2
	return srcs
}

// runOnEveryKernel evaluates query once per available kernel implementation
// and fails unless all results are byte-identical (reflect.DeepEqual over
// the exact float64 values, order included).
func runOnEveryKernel(t *testing.T, label string, query func() (any, error)) {
	t.Helper()
	kernels := kernel.Available()
	if len(kernels) < 2 {
		t.Skip("only one kernel implementation available; nothing to cross-check")
	}
	var baseline any
	for i, name := range kernels {
		restore, err := kernel.Use(name)
		if err != nil {
			t.Fatal(err)
		}
		got, qerr := query()
		restore()
		if qerr != nil {
			t.Fatalf("%s on kernel %q: %v", label, name, qerr)
		}
		if i == 0 {
			baseline = got
			continue
		}
		if !reflect.DeepEqual(got, baseline) {
			t.Fatalf("%s: kernel %q diverges from %q\n got  %v\n want %v",
				label, name, kernels[0], got, baseline)
		}
	}
}

func TestCrossKernelQueryEquivalence(t *testing.T) {
	outerPts := clusteredTestPoints(977, 4)
	innerPts := clusteredTestPoints(1021, 9)
	f1 := twoknn.Point{X: 300, Y: 420}
	f2 := twoknn.Point{X: 700, Y: 260}
	rng := twoknn.NewRect(200, 200, 640, 560)

	outers := kernelEquivSources(t, "kernel-outer", outerPts)
	inners := kernelEquivSources(t, "kernel-inner", innerPts)

	algs := []twoknn.Algorithm{
		twoknn.AlgorithmConceptual, twoknn.AlgorithmCounting, twoknn.AlgorithmBlockMarking,
	}
	for backing, outer := range outers {
		inner := inners[backing]
		t.Run(backing, func(t *testing.T) {
			runOnEveryKernel(t, "TwoSelects", func() (any, error) {
				return twoknn.TwoSelects(inner, f1, 37, f2, 53)
			})
			for _, alg := range algs {
				alg := alg
				runOnEveryKernel(t, fmt.Sprintf("SelectInnerJoin/%v", alg), func() (any, error) {
					return twoknn.SelectInnerJoin(outer, inner, f1, 7, 41, twoknn.WithAlgorithm(alg))
				})
				runOnEveryKernel(t, fmt.Sprintf("RangeInnerJoin/%v", alg), func() (any, error) {
					return twoknn.RangeInnerJoin(outer, inner, rng, 6, twoknn.WithAlgorithm(alg))
				})
			}
			runOnEveryKernel(t, "SelectOuterJoin", func() (any, error) {
				return twoknn.SelectOuterJoin(outer, inner, f1, 33, 5)
			})
			runOnEveryKernel(t, "UnchainedJoins", func() (any, error) {
				return twoknn.UnchainedJoins(outer, inner, outer, 4, 3)
			})
			runOnEveryKernel(t, "ChainedJoins", func() (any, error) {
				return twoknn.ChainedJoins(outer, inner, outer, 4, 3)
			})
		})
	}
}

// clusteredTestPoints generates a deterministic mix of cluster cores and
// co-located duplicates on a quantized grid, so exact distance ties cross
// the kernels' compare paths.
func clusteredTestPoints(n int, seed int64) []twoknn.Point {
	pts := make([]twoknn.Point, 0, n)
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func(mod int) float64 {
		state = state*2862933555777941757 + 3037000493
		return float64(int(state>>33) % mod)
	}
	for len(pts) < n {
		cx, cy := next(240)*4, next(240)*4 // core + 15*4 offset stays inside [0,1024)
		for j := 0; j < 8 && len(pts) < n; j++ {
			p := twoknn.Point{X: cx + next(16)*4, Y: cy + next(16)*4}
			pts = append(pts, p)
			if j%3 == 0 && len(pts) < n {
				pts = append(pts, p) // co-located duplicate
			}
		}
	}
	return pts
}
