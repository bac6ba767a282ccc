package twoknn_test

import (
	"reflect"
	"testing"

	twoknn "repro"
	"repro/internal/locality"
)

// FuzzKNNSelectBatch checks the batched entry point against the NaiveKNN
// brute-force oracle and the sequential KNNSelect loop, over every backing
// of fuzzRelations (grid, quadtree, hash- and spatially-sharded). Focals are
// decoded on the same coarse grid as the data points, so the fuzzer hits
// duplicate focals, focals co-located with data points, and exact distance
// ties — the regimes where a batch could diverge from the per-query order
// if it reused one focal's state for another.
func FuzzKNNSelectBatch(f *testing.F) {
	f.Add([]byte("spatial queries with two knn predicates"), []byte("batched execution"), uint8(3))
	f.Add([]byte{10, 10, 10, 10, 10, 10, 200, 200}, []byte{10, 10, 10, 10, 200, 200}, uint8(2))
	f.Add([]byte{0, 0, 255, 255, 0, 255, 255, 0, 128, 128}, []byte{128, 128, 128, 128, 0, 0}, uint8(40))
	f.Add([]byte{128, 127, 129, 128, 128, 128, 64, 64}, []byte{128, 128, 128, 127}, uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, focalData []byte, kb uint8) {
		pts := fuzzPoints(data, 120)
		if len(pts) == 0 {
			return
		}
		focals := fuzzPoints(focalData, 12)
		if len(focals) == 0 {
			return
		}
		k := int(kb%48) + 1

		oracle := make([][]twoknn.Point, len(focals))
		for i, f := range focals {
			oracle[i] = locality.NaiveKNN(pts, f, k).Points
		}

		_, srcs := fuzzRelations(t, "batch-fuzz", pts)
		for _, src := range srcs {
			got, err := twoknn.KNNSelectBatch(src, focals, k)
			if err != nil {
				t.Fatalf("%s/%v: %v", src.Name(), src.IndexKind(), err)
			}
			for i := range focals {
				if len(got[i]) != len(oracle[i]) {
					t.Fatalf("%s/%v focal %d: batch %v vs oracle %v",
						src.Name(), src.IndexKind(), i, got[i], oracle[i])
				}
				for j := range got[i] {
					if got[i][j] != oracle[i][j] {
						t.Fatalf("%s/%v focal %d: batch %v vs oracle %v",
							src.Name(), src.IndexKind(), i, got[i], oracle[i])
					}
				}
				seq, err := twoknn.KNNSelect(src, focals[i], k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[i], seq) {
					t.Fatalf("%s/%v focal %d: batch %v vs sequential %v",
						src.Name(), src.IndexKind(), i, got[i], seq)
				}
			}
		}
	})
}
