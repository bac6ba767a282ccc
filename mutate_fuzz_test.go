package twoknn_test

import (
	"reflect"
	"testing"

	twoknn "repro"
)

// FuzzMutateRelation drives fuzzer-chosen insert/remove/update/compact/query
// interleavings through mutable relations on both index kinds, checking
// every checkpoint against a from-scratch rebuild of the live point set
// (the map-of-stable-IDs oracle). The coarse coordinate grid of fuzzPoints
// makes co-located duplicates and exact distance ties common; the update op
// reaches removed IDs, so remove-then-reinsert of the same identity is part
// of the explored space. Seed corpus under testdata/fuzz/FuzzMutateRelation.
func FuzzMutateRelation(f *testing.F) {
	// Duplicates and co-located points, then a remove and same-ID reinsert.
	f.Add([]byte{10, 10, 10, 10, 10, 10, 200, 200, 40, 80},
		[]byte{0, 50, 50, 1, 0, 2, 0, 60, 60, 4}, uint8(3), 100.0, 200.0)
	// Insert burst, scripted compaction, then queries.
	f.Add([]byte("spatial queries with two knn predicates"),
		[]byte{0, 1, 2, 0, 3, 3, 0, 7, 7, 3, 4, 1, 5, 4}, uint8(8), 512.0, 512.0)
	// Remove everything, query the empty relation, repopulate.
	f.Add([]byte{100, 100, 120, 120},
		[]byte{1, 0, 1, 1, 4, 0, 99, 99, 4}, uint8(2), 400.0, 400.0)
	// Update-heavy: moves of live and dead IDs interleaved with checks.
	f.Add([]byte{0, 0, 255, 255, 0, 255, 255, 0, 128, 128},
		[]byte{2, 0, 10, 10, 2, 9, 20, 20, 4, 1, 2, 2, 2, 30, 30, 4, 3, 4}, uint8(5), 0.0, 0.0)

	f.Fuzz(func(t *testing.T, ptsData, script []byte, kb uint8, x, y float64) {
		pts := fuzzPoints(ptsData, 100)
		if len(pts) == 0 {
			return
		}
		focal, ok := fuzzFocal(x, y)
		if !ok {
			return
		}
		k := int(kb%24) + 1

		kinds := []twoknn.IndexKind{twoknn.GridIndex, twoknn.QuadtreeIndex}
		rels := make([]*twoknn.Relation, len(kinds))
		for i, kind := range kinds {
			rel, err := twoknn.NewRelation("fuzzmut", pts,
				twoknn.WithIndexKind(kind), twoknn.WithBlockCapacity(8),
				twoknn.WithCompactThreshold(-1)) // compaction only via the scripted op
			if err != nil {
				t.Fatalf("%v: build: %v", kind, err)
			}
			rels[i] = rel
		}
		oracle := newMutOracle(pts)

		checkpoint := func() {
			t.Helper()
			ref := oracle.rebuild(t, twoknn.GridIndex, 8)
			wantSel, err := ref.KNNSelect(focal, k)
			if err != nil {
				t.Fatalf("oracle knn-select: %v", err)
			}
			wantTwo, err := twoknn.TwoSelects(ref, focal, k, twoknn.Point{X: 512, Y: 512}, 3)
			if err != nil {
				t.Fatalf("oracle two-selects: %v", err)
			}
			for i, rel := range rels {
				if rel.Len() != len(oracle.pts) {
					t.Fatalf("%v: Len = %d, oracle %d", kinds[i], rel.Len(), len(oracle.pts))
				}
				got, err := rel.KNNSelect(focal, k)
				if err != nil {
					t.Fatalf("%v: knn-select: %v", kinds[i], err)
				}
				if !reflect.DeepEqual(got, wantSel) {
					t.Fatalf("%v: KNNSelect diverges from rebuild\n got  %v\n want %v", kinds[i], got, wantSel)
				}
				gotTwo, err := twoknn.TwoSelects(rel, focal, k, twoknn.Point{X: 512, Y: 512}, 3)
				if err != nil {
					t.Fatalf("%v: two-selects: %v", kinds[i], err)
				}
				if !reflect.DeepEqual(gotTwo, wantTwo) {
					t.Fatalf("%v: TwoSelects diverges from rebuild\n got  %v\n want %v", kinds[i], gotTwo, wantTwo)
				}
			}
		}

		ops := 0
		for i := 0; i < len(script) && ops < 48; ops++ {
			op := script[i] % 5
			i++
			take := func() byte {
				if i < len(script) {
					b := script[i]
					i++
					return b
				}
				return 0
			}
			switch op {
			case 0: // insert one quantized point
				p := twoknn.Point{X: float64(take()) * 4, Y: float64(take()) * 4}
				ids := oracle.insert(p)
				for _, rel := range rels {
					got := rel.Insert(p)
					if !reflect.DeepEqual(got, ids) {
						t.Fatalf("Insert IDs diverge: %v vs %v", got, ids)
					}
				}
			case 1: // remove by (possibly dead or future) ID
				id := int32(take()) % (oracle.nextID + 2)
				_, live := oracle.pts[id]
				oracle.remove(id)
				for i2, rel := range rels {
					if got := rel.Remove(id); (got == 1) != live {
						t.Fatalf("%v: Remove(%d) = %d, oracle live %v", kinds[i2], id, got, live)
					}
				}
			case 2: // update/upsert by ID — reaches removed IDs (reinsert)
				id := int32(take()) % (oracle.nextID + 2)
				p := twoknn.Point{X: float64(take()) * 4, Y: float64(take()) * 4}
				_, live := oracle.pts[id]
				oracle.update(id, p)
				for i2, rel := range rels {
					if got := rel.Update(id, p); got != live {
						t.Fatalf("%v: Update(%d) existed = %v, oracle %v", kinds[i2], id, got, live)
					}
				}
			case 3: // compact
				for i2, rel := range rels {
					if err := rel.Compact(); err != nil {
						t.Fatalf("%v: Compact: %v", kinds[i2], err)
					}
				}
			default: // checkpoint
				checkpoint()
			}
		}
		checkpoint()
	})
}
