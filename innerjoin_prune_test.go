package twoknn_test

import (
	"fmt"
	"reflect"
	"testing"

	twoknn "repro"
	"repro/internal/datagen"
)

// TestInnerJoinPrunesCompose is the differential battery of AlgorithmAuto,
// which runs Block-Marking's block prune and then Counting's tuple prune in
// the blocks that survive it. Each prune is exact on its own, so the
// combination must return the rows of each of them and of the conceptual
// plan — on every backing, for a uniform and a clustered outer and for one
// above the 30,000 points that once switched Auto from Counting to
// Block-Marking, at one worker and at four, for both inner-join shapes. The
// tuple prune only removes neighborhoods from the blocks Block-Marking
// keeps, so Auto never computes more of them than Block-Marking does.
func TestInnerJoinPrunesCompose(t *testing.T) {
	const kJoin, kSel = 4, 10
	clustered, err := datagen.Clustered(datagen.ClusterConfig{NumClusters: 1, PointsPerCluster: 200, Radius: 40, Bounds: testBounds, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	innerPts := datagen.Uniform(3000, testBounds, 71)
	outers := []struct {
		name string
		pts  []twoknn.Point
	}{
		{"uniform-500", datagen.Uniform(500, testBounds, 73)},
		{"clustered-1x200", clustered},
		{"uniform-30001", datagen.Uniform(30001, testBounds, 74)},
	}
	focal := twoknn.Point{X: clustered[0].X + 3, Y: clustered[0].Y - 2}
	rng := twoknn.NewRect(focal.X-30, focal.Y-40, focal.X+40, focal.Y+30)

	single := func(kind twoknn.IndexKind) func(*testing.T, string, []twoknn.Point, bool) twoknn.Source {
		return func(t *testing.T, name string, pts []twoknn.Point, _ bool) twoknn.Source {
			rel, err := twoknn.NewRelation(name, pts, twoknn.WithIndexKind(kind), twoknn.WithBlockCapacity(16), twoknn.WithBounds(testBounds))
			if err != nil {
				t.Fatal(err)
			}
			return rel
		}
	}
	sharded := func(shards int, policy twoknn.ShardPolicy) func(*testing.T, string, []twoknn.Point, bool) twoknn.Source {
		return func(t *testing.T, name string, pts []twoknn.Point, _ bool) twoknn.Source {
			return buildSharded(t, name, pts, twoknn.GridIndex, shards, policy)
		}
	}
	backings := []matrixBacking{
		{name: "grid", build: single(twoknn.GridIndex)},
		{name: "quadtree", build: single(twoknn.QuadtreeIndex)},
		{name: "hash-3", build: sharded(3, twoknn.HashSharding)},
		{name: "spatial-2", build: sharded(2, twoknn.SpatialSharding)},
		{name: "single-outer/remote-inner", build: func(t *testing.T, name string, pts []twoknn.Point, probed bool) twoknn.Source {
			if probed {
				return dialLoopback(t, name, pts, 3, twoknn.HashSharding)
			}
			return single(twoknn.GridIndex)(t, name, pts, probed)
		}},
	}
	algorithms := []twoknn.Algorithm{twoknn.AlgorithmConceptual, twoknn.AlgorithmCounting,
		twoknn.AlgorithmBlockMarking, twoknn.AlgorithmAuto}
	shapes := []struct {
		name string
		run  func(outer, inner twoknn.Source, opts ...twoknn.QueryOption) ([]twoknn.Pair, error)
	}{
		{"select-inner-join", func(outer, inner twoknn.Source, opts ...twoknn.QueryOption) ([]twoknn.Pair, error) {
			return twoknn.SelectInnerJoin(outer, inner, focal, kJoin, kSel, opts...)
		}},
		{"range-inner-join", func(outer, inner twoknn.Source, opts ...twoknn.QueryOption) ([]twoknn.Pair, error) {
			return twoknn.RangeInnerJoin(outer, inner, rng, kJoin, opts...)
		}},
	}

	for _, bk := range backings {
		inner := bk.build(t, "I", innerPts, true)
		for _, o := range outers {
			outer := bk.build(t, "O", o.pts, false)
			for _, sh := range shapes {
				for _, workers := range []int{1, 4} {
					what := fmt.Sprintf("%s/%s/%s/workers=%d", bk.name, o.name, sh.name, workers)
					var want []twoknn.Pair
					nbrs := map[twoknn.Algorithm]int64{}
					for _, alg := range algorithms {
						var st twoknn.Stats
						got, err := sh.run(outer, inner, twoknn.WithAlgorithm(alg), twoknn.WithConcurrency(workers), twoknn.WithStats(&st))
						if err != nil {
							t.Fatalf("%s/%s: %v", what, alg, err)
						}
						if alg == twoknn.AlgorithmConceptual {
							if len(got) == 0 {
								t.Fatalf("%s: the conceptual plan returns no rows: the case compares nothing", what)
							}
							want = got
						}
						samePairs(t, what+"/"+alg.String(), want, got)
						nbrs[alg] = st.Snapshot().Neighborhoods
					}
					if auto, bm := nbrs[twoknn.AlgorithmAuto], nbrs[twoknn.AlgorithmBlockMarking]; auto > bm {
						t.Errorf("%s: auto computed %d neighborhoods, block-marking %d: the tuple prune must only remove some", what, auto, bm)
					}
				}
			}
		}
	}
}

// TestUnchainedPruneBackingIndependent: Procedure 4 tests each block of the
// second join's outer relation against the b's the first join produced,
// through B's neighborhoods alone. Those are exact on every backing, so
// with A and C single relations the prune cannot depend on how B is held —
// one relation, a hash or spatial group, or remote shards: the rows and the
// pruned block count match, in both join orders.
func TestUnchainedPruneBackingIndependent(t *testing.T) {
	const kAB, kCB = 4, 4
	clustered, err := datagen.Clustered(datagen.ClusterConfig{NumClusters: 1, PointsPerCluster: 200, Radius: 40, Bounds: testBounds, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	single := func(name string, pts []twoknn.Point) *twoknn.Relation {
		rel, err := twoknn.NewRelation(name, pts, twoknn.WithBlockCapacity(16), twoknn.WithBounds(testBounds))
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	a, c := single("A", clustered), single("C", datagen.Uniform(500, testBounds, 82))
	ptsB := datagen.Uniform(3000, testBounds, 83)
	backings := []struct {
		name string
		b    twoknn.Source
	}{
		{"single", single("B", ptsB)},
		{"hash-3", buildSharded(t, "B", ptsB, twoknn.GridIndex, 3, twoknn.HashSharding)},
		{"spatial-2", buildSharded(t, "B", ptsB, twoknn.GridIndex, 2, twoknn.SpatialSharding)},
		{"remote-3", dialLoopback(t, "B", ptsB, 3, twoknn.HashSharding)},
	}
	for _, order := range []twoknn.JoinOrder{twoknn.OrderABFirst, twoknn.OrderCBFirst} {
		var want []twoknn.Triple
		var wantPruned int64
		for i, bk := range backings {
			var st twoknn.Stats
			got, err := twoknn.UnchainedJoins(a, bk.b, c, kAB, kCB, twoknn.WithJoinOrder(order), twoknn.WithStats(&st))
			if err != nil {
				t.Fatalf("%s/%s: %v", order, bk.name, err)
			}
			twoknn.SortTriples(got)
			pruned := st.Snapshot().BlocksPruned
			if i == 0 {
				if len(got) == 0 {
					t.Fatalf("%s: no rows: the case compares nothing", order)
				}
				if order == twoknn.OrderABFirst && pruned == 0 {
					t.Fatalf("%s: nothing pruned over a single B: the case compares nothing", order)
				}
				want, wantPruned = got, pruned
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: %d rows differ from the single B's %d", order, bk.name, len(got), len(want))
			}
			if pruned != wantPruned {
				t.Errorf("%s/%s: %d blocks pruned, %d over a single B", order, bk.name, pruned, wantPruned)
			}
		}
	}
}
