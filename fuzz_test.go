package twoknn_test

import (
	"math"
	"reflect"
	"testing"

	twoknn "repro"
	"repro/internal/locality"
)

// Native fuzz targets (go test -fuzz) for the two query shapes with the
// subtlest pruning machinery: TwoSelects (clipped localities) and
// SelectInnerJoin (Counting / Block-Marking). The oracle is NaiveKNN — sort
// all points by the canonical (distance, X, Y) order and take k — composed
// per the conceptual plans, so every optimized strategy AND the sharded
// scatter/gather path are differentially checked against brute force on
// fuzzer-chosen point sets, foci and k values.
//
// Point coordinates are quantized to a coarse grid (float64(byte) * 4), so
// the fuzzer hits exact distance ties and co-located duplicate points — the
// regimes where tie-breaking and multiset semantics can silently diverge.
// Seed corpora live under testdata/fuzz/<target>/.

var fuzzBounds = twoknn.NewRect(0, 0, 1024, 1024)

// fuzzPoints decodes two bytes per point on a coarse grid, capped at max.
func fuzzPoints(data []byte, max int) []twoknn.Point {
	n := len(data) / 2
	if n > max {
		n = max
	}
	pts := make([]twoknn.Point, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, twoknn.Point{
			X: float64(data[2*i]) * 4,
			Y: float64(data[2*i+1]) * 4,
		})
	}
	return pts
}

// fuzzFocal sanitizes a fuzzer-chosen coordinate: non-finite values are
// rejected, large magnitudes folded into a window around the data bounds so
// thresholds stay meaningful.
func fuzzFocal(x, y float64) (twoknn.Point, bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
		return twoknn.Point{}, false
	}
	fold := func(v float64) float64 {
		if v > 1e6 || v < -1e6 {
			v = math.Mod(v, 2048)
		}
		return v
	}
	return twoknn.Point{X: fold(x), Y: fold(y)}, true
}

func fuzzRelations(t *testing.T, name string, pts []twoknn.Point) (*twoknn.Relation, []twoknn.Source) {
	t.Helper()
	single, err := twoknn.NewRelation(name, pts,
		twoknn.WithBounds(fuzzBounds), twoknn.WithBlockCapacity(8))
	if err != nil {
		t.Fatalf("NewRelation: %v", err)
	}
	quad, err := twoknn.NewRelation(name, pts,
		twoknn.WithBounds(fuzzBounds), twoknn.WithBlockCapacity(8),
		twoknn.WithIndexKind(twoknn.QuadtreeIndex))
	if err != nil {
		t.Fatalf("NewRelation(quadtree): %v", err)
	}
	hash3, err := twoknn.NewShardedRelation(name, pts, 3,
		twoknn.WithBounds(fuzzBounds), twoknn.WithBlockCapacity(8))
	if err != nil {
		t.Fatalf("NewShardedRelation(hash): %v", err)
	}
	spatial2, err := twoknn.NewShardedRelation(name, pts, 2,
		twoknn.WithBounds(fuzzBounds), twoknn.WithBlockCapacity(8),
		twoknn.WithShardPolicy(twoknn.SpatialSharding))
	if err != nil {
		t.Fatalf("NewShardedRelation(spatial): %v", err)
	}
	return single, []twoknn.Source{single, quad, hash3, spatial2}
}

func sortedCopy(pts []twoknn.Point) []twoknn.Point {
	out := append([]twoknn.Point(nil), pts...)
	twoknn.SortPoints(out)
	return out
}

// FuzzTwoSelects checks σ_{k1,f1} ∩ σ_{k2,f2} — every backing and algorithm
// — against the naive intersection of two brute-force neighborhoods.
func FuzzTwoSelects(f *testing.F) {
	f.Add([]byte("spatial queries with two knn predicates"), uint8(3), uint8(9), 100.0, 200.0, 700.0, 650.0)
	f.Add([]byte{10, 10, 10, 10, 10, 10, 200, 200}, uint8(2), uint8(2), 40.0, 40.0, 40.0, 40.0)
	f.Add([]byte{0, 0, 255, 255, 0, 255, 255, 0, 128, 128}, uint8(1), uint8(40), 512.0, 512.0, 0.0, 0.0)
	// Tie-on-bound: (512, 508) and (516, 512) are exactly equidistant from
	// f2 = (512, 512), and that distance is exactly the clip threshold the
	// 2-kNN-select derives from k1 = 1 — the regime where a kernel whose
	// bound compare differed from the scalar path by one ulp (or used < for
	// <=) would drop an answer point.
	f.Add([]byte{128, 127, 129, 128, 128, 128, 64, 64}, uint8(1), uint8(3), 512.0, 512.0, 512.0, 512.0)

	f.Fuzz(func(t *testing.T, data []byte, k1b, k2b uint8, x1, y1, x2, y2 float64) {
		pts := fuzzPoints(data, 160)
		if len(pts) == 0 {
			return
		}
		f1, ok1 := fuzzFocal(x1, y1)
		f2, ok2 := fuzzFocal(x2, y2)
		if !ok1 || !ok2 {
			return
		}
		k1 := int(k1b%48) + 1
		k2 := int(k2b%48) + 1

		nbr1 := locality.NaiveKNN(pts, f1, k1)
		nbr2 := locality.NaiveKNN(pts, f2, k2)
		oracle := sortedCopy(nbr1.Intersect(nbr2))

		_, backings := fuzzRelations(t, "fuzz", pts)
		for i, rel := range backings {
			for _, alg := range []twoknn.Algorithm{twoknn.AlgorithmAuto, twoknn.AlgorithmConceptual} {
				got, err := twoknn.TwoSelects(rel, f1, k1, f2, k2, twoknn.WithAlgorithm(alg))
				if err != nil {
					t.Fatalf("backing %d alg %v: %v", i, alg, err)
				}
				if !reflect.DeepEqual(sortedCopy(got), oracle) {
					t.Fatalf("backing %d alg %v: TwoSelects diverges from naive oracle\n pts=%v\n f1=%v k1=%d f2=%v k2=%d\n got  %v\n want %v",
						i, alg, pts, f1, k1, f2, k2, sortedCopy(got), oracle)
				}
			}
		}
	})
}

// FuzzSelectInnerJoin checks (outer ⋈kNN inner) ∩ (outer × σ_{kSel,f}(inner))
// — every backing and strategy — against the brute-force join-then-filter.
func FuzzSelectInnerJoin(f *testing.F) {
	f.Add([]byte("two knn predicates over one inner relation!"), uint8(2), uint8(5), 300.0, 400.0)
	f.Add([]byte{50, 50, 51, 51, 52, 52, 200, 10, 10, 200, 128, 128}, uint8(1), uint8(1), 210.0, 210.0)
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255, 7, 7, 9, 9}, uint8(4), uint8(3), 28.0, 36.0)
	// Tie-on-bound: inner points (512, 508) and (516, 512) exactly
	// equidistant from the focal point (512, 512); the Counting algorithm's
	// per-tuple threshold then lands exactly on block boundaries, where a
	// kernel comparing one ulp off the scalar path would change the prune.
	f.Add([]byte{128, 127, 129, 128, 128, 128, 64, 64, 192, 192}, uint8(2), uint8(2), 512.0, 512.0)

	f.Fuzz(func(t *testing.T, data []byte, kjb, ksb uint8, fx, fy float64) {
		if len(data) < 4 {
			return
		}
		half := len(data) / 2
		outerPts := fuzzPoints(data[:half], 120)
		innerPts := fuzzPoints(data[half:], 120)
		if len(outerPts) == 0 || len(innerPts) == 0 {
			return
		}
		focal, ok := fuzzFocal(fx, fy)
		if !ok {
			return
		}
		kJoin := int(kjb%12) + 1
		kSel := int(ksb%16) + 1

		// Brute-force oracle: per-outer-point naive neighborhood, filtered by
		// membership in the naive select set.
		sel := locality.NaiveKNN(innerPts, focal, kSel)
		var oracle []twoknn.Pair
		for _, e1 := range outerPts {
			nbr := locality.NaiveKNN(innerPts, e1, kJoin)
			for _, e2 := range nbr.Points {
				if sel.Contains(e2) {
					oracle = append(oracle, twoknn.Pair{Left: e1, Right: e2})
				}
			}
		}
		twoknn.SortPairs(oracle)

		_, outerBackings := fuzzRelations(t, "outer", outerPts)
		_, innerBackings := fuzzRelations(t, "inner", innerPts)
		algs := []twoknn.Algorithm{twoknn.AlgorithmConceptual, twoknn.AlgorithmCounting, twoknn.AlgorithmBlockMarking}
		for i := range outerBackings {
			for _, alg := range algs {
				got, err := twoknn.SelectInnerJoin(outerBackings[i], innerBackings[i], focal, kJoin, kSel,
					twoknn.WithAlgorithm(alg))
				if err != nil {
					t.Fatalf("backing %d alg %v: %v", i, alg, err)
				}
				twoknn.SortPairs(got)
				if len(got) == 0 && len(oracle) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, oracle) {
					t.Fatalf("backing %d alg %v: SelectInnerJoin diverges from naive oracle\n outer=%v\n inner=%v\n f=%v kJoin=%d kSel=%d\n got  %d pairs %v\n want %d pairs %v",
						i, alg, outerPts, innerPts, focal, kJoin, kSel, len(got), got, len(oracle), oracle)
				}
			}
		}
	})
}
