package locality_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/index/overlay"
	"repro/internal/kernel"
	"repro/internal/locality"
	"repro/internal/stats"
	"repro/internal/testutil"
)

// TestNeighborhoodMatchesNaive is the foundational property: the locality
// algorithm must return exactly the brute-force k nearest neighbors (under
// the canonical tie order) on every index kind, every data layout, and a
// sweep of k values.
func TestNeighborhoodMatchesNaive(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1000, 1000)
	layouts := map[string][]geom.Point{
		"uniform":   testutil.UniformPoints(900, bounds, 11),
		"clustered": testutil.ClusteredPoints(900, 7, 20, bounds, 12),
		"tiny":      testutil.UniformPoints(5, bounds, 13),
	}
	rng := rand.New(rand.NewSource(21))
	for name, pts := range layouts {
		for _, kind := range testutil.AllIndexKinds {
			s := locality.NewSearcher(testutil.BuildIndex(t, kind, pts))
			for _, k := range []int{1, 2, 10, 64, len(pts), len(pts) + 5} {
				for trial := 0; trial < 8; trial++ {
					q := geom.Point{X: rng.Float64() * 1200, Y: rng.Float64() * 1200}
					got := s.Neighborhood(q, k, nil)
					want := locality.NaiveKNN(pts, q, k)
					if !reflect.DeepEqual(got.Points, want.Points) {
						t.Fatalf("%s/%s k=%d q=%v:\n got %v\nwant %v",
							name, kind, k, q, got.Points, want.Points)
					}
				}
			}
		}
	}
}

func TestNeighborhoodSortedAndConsistent(t *testing.T) {
	pts := testutil.UniformPoints(500, geom.NewRect(0, 0, 100, 100), 3)
	s := locality.NewSearcher(testutil.BuildIndex(t, testutil.Grid, pts))
	q := geom.Point{X: 50, Y: 50}
	n := s.Neighborhood(q, 25, nil)

	if n.Len() != 25 {
		t.Fatalf("Len = %d, want 25", n.Len())
	}
	if len(n.Dists) != len(n.Points) {
		t.Fatalf("Dists and Points lengths differ")
	}
	for i, p := range n.Points {
		if got := p.Dist(q); math.Abs(got-n.Dists[i]) > 1e-12 {
			t.Fatalf("Dists[%d] = %v, actual distance %v", i, n.Dists[i], got)
		}
		if i > 0 && n.Dists[i] < n.Dists[i-1] {
			t.Fatalf("distances not ascending at %d", i)
		}
	}
	if n.Nearest() != n.Points[0] || n.Farthest() != n.Points[24] {
		t.Fatalf("Nearest/Farthest disagree with Points order")
	}
	if got := n.FarthestDist(); got != n.Dists[24] {
		t.Fatalf("FarthestDist = %v, want %v", got, n.Dists[24])
	}
}

func TestNeighborhoodEdgeCases(t *testing.T) {
	pts := testutil.UniformPoints(50, geom.NewRect(0, 0, 10, 10), 4)
	s := locality.NewSearcher(testutil.BuildIndex(t, testutil.Grid, pts))
	q := geom.Point{X: 5, Y: 5}

	if n := s.Neighborhood(q, 0, nil); n.Len() != 0 {
		t.Errorf("k=0 must yield empty neighborhood, got %d", n.Len())
	}
	if n := s.Neighborhood(q, -3, nil); n.Len() != 0 {
		t.Errorf("negative k must yield empty neighborhood, got %d", n.Len())
	}
	if n := s.Neighborhood(q, 100, nil); n.Len() != 50 {
		t.Errorf("k > |E| must yield all points, got %d", n.Len())
	}

	empty := &locality.Neighborhood{Center: q}
	if d := empty.FarthestDist(); d != 0 {
		t.Errorf("empty FarthestDist = %v, want 0", d)
	}
	if d := empty.NearestDistTo(q); !math.IsInf(d, 1) {
		t.Errorf("empty NearestDistTo = %v, want +Inf", d)
	}
	if d := empty.FarthestDistTo(q); d != 0 {
		t.Errorf("empty FarthestDistTo = %v, want 0", d)
	}
}

func TestNeighborhoodDuplicatePoints(t *testing.T) {
	// Five copies of one point and five of another: kNN must handle
	// duplicate coordinates without dropping below k.
	var pts []geom.Point
	for i := 0; i < 5; i++ {
		pts = append(pts, geom.Point{X: 1, Y: 1}, geom.Point{X: 9, Y: 9})
	}
	s := locality.NewSearcher(testutil.BuildIndex(t, testutil.Grid, pts))
	n := s.Neighborhood(geom.Point{X: 0, Y: 0}, 7, nil)
	if n.Len() != 7 {
		t.Fatalf("Len = %d, want 7", n.Len())
	}
	for i := 0; i < 5; i++ {
		if n.Points[i] != (geom.Point{X: 1, Y: 1}) {
			t.Fatalf("Points[%d] = %v, want the near duplicate", i, n.Points[i])
		}
	}
}

func TestNeighborhoodHelpers(t *testing.T) {
	n := &locality.Neighborhood{
		Center: geom.Point{X: 0, Y: 0},
		Points: []geom.Point{{X: 1, Y: 0}, {X: 0, Y: 2}},
		Dists:  []float64{1, 2},
	}
	if !n.Contains(geom.Point{X: 1, Y: 0}) || n.Contains(geom.Point{X: 5, Y: 5}) {
		t.Errorf("Contains misbehaves")
	}
	clone := n.Clone()
	clone.Points[0] = geom.Point{X: 42, Y: 42}
	if n.Points[0] != (geom.Point{X: 1, Y: 0}) {
		t.Errorf("Clone shares backing storage with the original")
	}
	m := &locality.Neighborhood{ // in Neighborhood order, as Intersect requires
		Center: geom.Point{X: 9, Y: 9},
		Points: []geom.Point{{X: 7, Y: 7}, {X: 0, Y: 2}},
	}
	inter := n.Intersect(m)
	if len(inter) != 1 || inter[0] != (geom.Point{X: 0, Y: 2}) {
		t.Errorf("Intersect = %v, want [(0,2)]", inter)
	}

	q := geom.Point{X: 0, Y: 3}
	if got := n.NearestDistTo(q); got != 1 {
		t.Errorf("NearestDistTo = %v, want 1 (to (0,2))", got)
	}
	if got := n.FarthestDistTo(q); math.Abs(got-math.Hypot(1, 3)) > 1e-12 {
		t.Errorf("FarthestDistTo = %v, want %v", got, math.Hypot(1, 3))
	}
}

// duplicateHeavyPoints returns n points on integer coordinates (so distinct
// points tie exactly in distance) around a few clusters, each position
// repeated 1 to maxCopies times, in shuffled order.
func duplicateHeavyPoints(n, maxCopies int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, 0, n)
	for _, p := range testutil.ClusteredPoints(n, 4, 40, geom.NewRect(0, 0, 1000, 1000), seed) {
		p = geom.Point{X: math.Round(p.X), Y: math.Round(p.Y)}
		for c := 1 + rng.Intn(maxCopies); c > 0 && len(pts) < n; c-- {
			pts = append(pts, p)
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// linearIntersect is the O(|n|·|m|) multiset intersection Intersect
// replaced, kept as its reference: n's first min(a, b) copies of a point
// held a times in n and b times in m, in n's order.
func linearIntersect(n, m *locality.Neighborhood) []geom.Point {
	var out []geom.Point
	for i, p := range n.Points {
		inM := 0
		for _, q := range m.Points {
			if q == p {
				inM++
			}
		}
		if inM == 0 {
			continue
		}
		soFar := 0
		for _, q := range n.Points[:i+1] {
			if q == p {
				soFar++
			}
		}
		if soFar <= inM {
			out = append(out, p)
		}
	}
	return out
}

// TestIntersectMatchesLinearCount holds Intersect's binary-search
// multiplicities to the linear count on neighborhoods in Neighborhood order
// about different centers, over points repeated up to 50 times — including
// empty operands and k beyond the data set.
func TestIntersectMatchesLinearCount(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	unequalRuns := 0
	for trial := 0; trial < 30; trial++ {
		pts := duplicateHeavyPoints(100+rng.Intn(500), 50, int64(trial))
		c1 := pts[rng.Intn(len(pts))]
		centers := []geom.Point{
			c1,
			{X: c1.X + 30, Y: c1.Y - 30},
			pts[rng.Intn(len(pts))],
			{X: math.Round(rng.Float64() * 1000), Y: math.Round(rng.Float64() * 1000)},
		}
		for _, k := range [][2]int{{0, 10}, {10, 0}, {1, 1}, {10, 640}, {60, 60}, {200, 20}, {len(pts), len(pts) + 3}} {
			for _, c2 := range centers[1:] {
				n := locality.NaiveKNN(pts, c1, k[0])
				m := locality.NaiveKNN(pts, c2, k[1])
				got, want := n.Intersect(m), linearIntersect(n, m)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d k=%v centers %v %v:\n got %v\nwant %v", trial, k, c1, c2, got, want)
				}
				if rev := m.Intersect(n); len(rev) != len(got) {
					t.Fatalf("trial %d k=%v: |m∩n| = %d, |n∩m| = %d", trial, k, len(rev), len(got))
				}
				for i, p := range got {
					if i > 0 && got[i-1] == p {
						continue
					}
					if a, b := countOf(n.Points, p), countOf(m.Points, p); a > 1 && b > 1 && a != b {
						unequalRuns++
					}
				}
			}
		}
	}
	if unequalRuns == 0 {
		t.Fatalf("no intersected point was repeated a different number of times in each operand; the data exercises nothing")
	}
}

func countOf(pts []geom.Point, p geom.Point) int {
	c := 0
	for _, q := range pts {
		if q == p {
			c++
		}
	}
	return c
}

// TestSelectionAtHeapBoundary pins k-selection where the heap reaches k in
// the middle of a span (k around the block capacity) and where it never
// fills (k ≥ n), on both span-scan paths — the fused scalar loop (capacity
// 16, below every kernel's batch grain) and the batched kernels (capacity
// 128) — under every available kernel, over co-located duplicates and exact
// distance ties, on both index families and an overlay snapshot whose
// inserts and removals add delta chunks and patched base blocks.
// Neighborhood must equal NaiveKNN and scan only the blocks it must (see
// mustScan), and NeighborhoodWithinSq must equal the k closest points of the
// blocks within the threshold.
func TestSelectionAtHeapBoundary(t *testing.T) {
	pts := duplicateHeavyPoints(1500, 50, 61)
	rng := rand.New(rand.NewSource(62))
	var focals []geom.Point
	for i := 0; i < 3; i++ {
		focals = append(focals, pts[rng.Intn(len(pts))],
			geom.Point{X: math.Round(rng.Float64() * 1000), Y: math.Round(rng.Float64() * 1000)})
	}
	for _, kname := range kernel.Available() {
		t.Run(kname, func(t *testing.T) {
			restore, err := kernel.Use(kname)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			for _, capacity := range []int{16, 128} {
				for _, tc := range heapBoundaryIndexes(t, pts, capacity) {
					s := locality.NewSearcher(tc.ix)
					n := len(tc.pts)
					for _, k := range []int{1, 10, capacity - 1, capacity, capacity + 1, 640, n, n + 3} {
						for _, f := range focals {
							label := func(what string) string {
								return fmt.Sprintf("%s cap=%d %s k=%d f=%v: %s", tc.name, capacity, kname, k, f, what)
							}
							want := locality.NaiveKNN(tc.pts, f, k)
							var c stats.Counters
							sameNeighborhood(t, label("Neighborhood"), s.Neighborhood(f, k, &c), want)
							if must := mustScan(tc.ix, f, want, k); c.BlocksScanned != must {
								t.Fatalf("%s", label(fmt.Sprintf("Neighborhood scanned %d blocks, want %d", c.BlocksScanned, must)))
							}
							mid := want.Points[len(want.Points)/2]
							for _, thrSq := range []float64{mid.DistSq(f), rng.Float64() * 150 * 150} {
								var admitted []geom.Point
								for _, b := range tc.ix.Blocks() {
									if b.Bounds.MinDistSq(f) <= thrSq {
										admitted = b.AppendPoints(admitted)
									}
								}
								sameNeighborhood(t, label(fmt.Sprintf("NeighborhoodWithinSq(%v)", thrSq)),
									s.NeighborhoodWithinSq(f, k, thrSq, nil), locality.NaiveKNN(admitted, f, k))
							}
						}
					}
				}
			}
		})
	}
}

// heapBoundaryIndex is one index of TestSelectionAtHeapBoundary with the
// points it holds.
type heapBoundaryIndex struct {
	name string
	ix   index.Index
	pts  []geom.Point
}

// heapBoundaryIndexes builds both index families over pts at the given
// block capacity, plus an overlay snapshot of the quadtree in which every
// seventh point is removed and 60 points are inserted — half of them copies
// of base points, so the delta chunks add exact ties.
func heapBoundaryIndexes(t *testing.T, pts []geom.Point, capacity int) []heapBoundaryIndex {
	t.Helper()
	var out []heapBoundaryIndex
	for _, kind := range testutil.AllIndexKinds {
		ix, err := testutil.NewIndexCapacity(kind, pts, capacity)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, heapBoundaryIndex{name: string(kind), ix: ix, pts: pts})
	}
	st := overlay.NewStore(out[len(out)-1].ix, capacity)
	var live []geom.Point
	for id, p := range pts {
		if id%7 != 3 {
			live = append(live, p)
		} else if !st.Remove(int32(id)) {
			t.Fatalf("overlay: removing stable ID %d found nothing", id)
		}
	}
	rng := rand.New(rand.NewSource(63))
	for j := 0; j < 60; j++ {
		p := pts[rng.Intn(len(pts))]
		if j%2 == 1 {
			p = geom.Point{X: math.Round(rng.Float64() * 1000), Y: math.Round(rng.Float64() * 1000)}
		}
		st.Insert(p, int32(len(pts)+j))
		live = append(live, p)
	}
	return append(out, heapBoundaryIndex{name: out[len(out)-1].name + "+overlay", ix: st.Snapshot(), pts: live})
}

// mustScan counts the blocks an exact block-based kNN of f must scan: those
// index.MinDistOrder yields with MINDIST² at most the squared distance of
// the k-th neighbor in nbr — every block when nbr holds fewer than k points.
// A block beyond it holds no point that can enter the neighborhood, and a
// block within it may.
func mustScan(ix index.Index, f geom.Point, nbr *locality.Neighborhood, k int) int64 {
	limitSq := math.Inf(1)
	if nbr.Len() == k {
		limitSq = nbr.Farthest().DistSq(f)
	}
	n := int64(0)
	for it := index.MinDistOrder(ix, f); ; n++ {
		if _, keySq, ok := it.Next(); !ok || keySq > limitSq {
			return n
		}
	}
}

func sameNeighborhood(t *testing.T, label string, got, want *locality.Neighborhood) {
	t.Helper()
	same := got.Center == want.Center && got.Len() == want.Len() && len(got.Dists) == len(want.Dists)
	for i := 0; same && i < want.Len(); i++ {
		same = got.Points[i] == want.Points[i] && got.Dists[i] == want.Dists[i]
	}
	if !same {
		t.Fatalf("%s:\n got %v %v\nwant %v %v", label, got.Points, got.Dists, want.Points, want.Dists)
	}
}

// TestWithinNeighborhoodSoundForTwoSelects is the soundness proof of
// TwoSelects' second predicate, argued at Searcher.NeighborhoodWithinSq: for
// any point set P whose members all lie within the threshold of the query
// point, P ∩ within = P ∩ trueKNN.
func TestWithinNeighborhoodSoundForTwoSelects(t *testing.T) {
	bounds := geom.NewRect(0, 0, 500, 500)
	pts := testutil.ClusteredPoints(800, 5, 30, bounds, 31)
	rng := rand.New(rand.NewSource(32))
	for _, kind := range testutil.AllIndexKinds {
		s := locality.NewSearcher(testutil.BuildIndex(t, kind, pts))
		for trial := 0; trial < 30; trial++ {
			q := geom.Point{X: rng.Float64() * 500, Y: rng.Float64() * 500}
			k := 1 + rng.Intn(200)
			threshold := rng.Float64() * 300
			thresholdSq := threshold * threshold

			within := s.NeighborhoodWithinSq(q, k, thresholdSq, nil)
			truth := locality.NaiveKNN(pts, q, k)

			// P = every data point within threshold of q.
			for _, p := range pts {
				if p.DistSq(q) > thresholdSq {
					continue
				}
				if within.Contains(p) != truth.Contains(p) {
					t.Fatalf("%s: point %v within threshold %v: within=%v truth=%v (k=%d q=%v)",
						kind, p, threshold, within.Contains(p), truth.Contains(p), k, q)
				}
			}
		}
	}
}

func TestSearcherClone(t *testing.T) {
	pts := testutil.UniformPoints(200, geom.NewRect(0, 0, 10, 10), 8)
	s := locality.NewSearcher(testutil.BuildIndex(t, testutil.Grid, pts))
	clone := s.Clone()
	if clone.Index() != s.Index() {
		t.Fatalf("clone must share the index")
	}
	q := geom.Point{X: 5, Y: 5}
	a := s.Neighborhood(q, 10, nil)
	b := clone.Neighborhood(q, 10, nil)
	if !reflect.DeepEqual(a.Points, b.Points) {
		t.Fatalf("clone results differ")
	}
}

func TestCountersAccumulate(t *testing.T) {
	pts := testutil.UniformPoints(400, geom.NewRect(0, 0, 100, 100), 9)
	s := locality.NewSearcher(testutil.BuildIndex(t, testutil.Grid, pts))
	var c stats.Counters
	s.Neighborhood(geom.Point{X: 50, Y: 50}, 10, &c)
	if c.Neighborhoods != 1 {
		t.Errorf("Neighborhoods = %d, want 1", c.Neighborhoods)
	}
	if c.BlocksScanned == 0 {
		t.Errorf("BlocksScanned must be positive")
	}
	if c.PointsCompared == 0 {
		t.Errorf("PointsCompared must be positive")
	}
}

func TestNaiveKNNDeterministicTies(t *testing.T) {
	// Four points at identical distance from the origin: ties must break by
	// (X, Y) order.
	pts := []geom.Point{{X: 0, Y: 1}, {X: 1, Y: 0}, {X: 0, Y: -1}, {X: -1, Y: 0}}
	n := locality.NaiveKNN(pts, geom.Point{}, 2)
	want := []geom.Point{{X: -1, Y: 0}, {X: 0, Y: -1}}
	if !reflect.DeepEqual(n.Points, want) {
		t.Fatalf("tie order = %v, want %v", n.Points, want)
	}
}
