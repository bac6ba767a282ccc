package twoknn_test

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	twoknn "repro"
	"repro/internal/datagen"
)

var testBounds = twoknn.NewRect(0, 0, 1000, 1000)

func uniformRelation(t *testing.T, name string, n int, seed int64, opts ...twoknn.RelationOption) *twoknn.Relation {
	t.Helper()
	rel, err := twoknn.NewRelation(name, datagen.Uniform(n, testBounds, seed), opts...)
	if err != nil {
		t.Fatalf("building relation %s: %v", name, err)
	}
	return rel
}

func TestNewRelationValidation(t *testing.T) {
	if _, err := twoknn.NewRelation("empty", nil); err == nil {
		t.Errorf("empty relation without bounds must error")
	}
	rel, err := twoknn.NewRelation("empty", nil, twoknn.WithBounds(testBounds))
	if err != nil {
		t.Fatalf("empty relation with bounds must build: %v", err)
	}
	if rel.Len() != 0 {
		t.Errorf("Len = %d, want 0", rel.Len())
	}
}

func TestRelationAccessors(t *testing.T) {
	for _, kind := range []twoknn.IndexKind{twoknn.GridIndex, twoknn.QuadtreeIndex} {
		rel := uniformRelation(t, "acc", 200, 5, twoknn.WithIndexKind(kind), twoknn.WithBlockCapacity(16))
		if rel.Name() != "acc" {
			t.Errorf("Name = %q", rel.Name())
		}
		if rel.Len() != 200 {
			t.Errorf("%v: Len = %d, want 200", kind, rel.Len())
		}
		if rel.IndexKind() != kind {
			t.Errorf("IndexKind = %v, want %v", rel.IndexKind(), kind)
		}
		if got := len(rel.Points()); got != 200 {
			t.Errorf("%v: Points len = %d", kind, got)
		}
		if rel.Bounds().Area() <= 0 {
			t.Errorf("%v: empty bounds", kind)
		}
		if kind.String() == "" {
			t.Errorf("IndexKind %d has empty String", kind)
		}
	}
}

func TestKNNSelectAndJoinPublic(t *testing.T) {
	rel := uniformRelation(t, "E", 300, 7)
	f := twoknn.Point{X: 500, Y: 500}

	pts, err := rel.KNNSelect(f, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 {
		t.Fatalf("KNNSelect returned %d points, want 10", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Dist(f) < pts[i-1].Dist(f) {
			t.Fatalf("KNNSelect results not in ascending distance order")
		}
	}
	if _, err := rel.KNNSelect(f, 0); err == nil {
		t.Errorf("k=0 must error")
	}

	other := uniformRelation(t, "F", 200, 8)
	pairs, err := twoknn.KNNJoin(rel, other, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 300*3 {
		t.Fatalf("KNNJoin returned %d pairs, want %d", len(pairs), 300*3)
	}
	if _, err := twoknn.KNNJoin(nil, other, 3); err == nil {
		t.Errorf("nil relation must error")
	}
	if _, err := twoknn.KNNJoin(rel, other, -1); err == nil {
		t.Errorf("negative k must error")
	}
}

// TestPublicQueriesAgreeAcrossStrategies drives every public two-predicate
// query through all its strategies and index kinds, checking result-set
// equality — the public-API version of the core equivalence suite.
func TestPublicQueriesAgreeAcrossStrategies(t *testing.T) {
	kinds := []twoknn.IndexKind{twoknn.GridIndex, twoknn.QuadtreeIndex}
	for _, kind := range kinds {
		outer := uniformRelation(t, "outer", 250, 11, twoknn.WithIndexKind(kind), twoknn.WithBlockCapacity(16))
		inner := uniformRelation(t, "inner", 350, 12, twoknn.WithIndexKind(kind), twoknn.WithBlockCapacity(16))
		f := twoknn.Point{X: 420, Y: 610}

		var base []twoknn.Pair
		for i, alg := range []twoknn.Algorithm{twoknn.AlgorithmConceptual, twoknn.AlgorithmCounting, twoknn.AlgorithmBlockMarking, twoknn.AlgorithmAuto} {
			got, err := twoknn.SelectInnerJoin(outer, inner, f, 4, 9, twoknn.WithAlgorithm(alg))
			if err != nil {
				t.Fatal(err)
			}
			twoknn.SortPairs(got)
			if i == 0 {
				base = got
				continue
			}
			if len(got) != len(base) {
				t.Fatalf("%v/%v: %d pairs, want %d", kind, alg, len(got), len(base))
			}
			for j := range got {
				if got[j] != base[j] {
					t.Fatalf("%v/%v: pair %d differs", kind, alg, j)
				}
			}
		}
	}
}

func TestSelectInnerJoinExplainAndStats(t *testing.T) {
	outer := uniformRelation(t, "mechanics", 100, 21)
	inner := uniformRelation(t, "hotels", 150, 22)
	f := twoknn.Point{X: 100, Y: 100}

	var explain string
	var st twoknn.Stats
	_, err := twoknn.SelectInnerJoin(outer, inner, f, 2, 2,
		twoknn.WithAlgorithm(twoknn.AlgorithmBlockMarking),
		twoknn.WithExplain(&explain), twoknn.WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"block-marking", "mechanics", "hotels", "mark-blocks"} {
		if !strings.Contains(explain, want) {
			t.Errorf("explain missing %q:\n%s", want, explain)
		}
	}
	if st.Neighborhoods == 0 {
		t.Errorf("stats not collected: %v", &st)
	}
}

func TestSelectOuterJoinPublic(t *testing.T) {
	outer := uniformRelation(t, "A", 120, 31)
	inner := uniformRelation(t, "B", 150, 32)
	f := twoknn.Point{X: 500, Y: 500}

	var explain string
	pairs, err := twoknn.SelectOuterJoin(outer, inner, f, 10, 3, twoknn.WithExplain(&explain))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 10*3 {
		t.Fatalf("got %d pairs, want 30", len(pairs))
	}
	if !strings.Contains(explain, "pushdown valid") {
		t.Errorf("explain should mention the valid pushdown:\n%s", explain)
	}
	if _, err := twoknn.SelectOuterJoin(outer, inner, f, 0, 3); err == nil {
		t.Errorf("kSel=0 must error")
	}
}

func TestUnchainedJoinsPublic(t *testing.T) {
	clustered, err := datagen.Clustered(datagen.ClusterConfig{
		NumClusters: 2, PointsPerCluster: 60, Radius: 40, Bounds: testBounds, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	a, err := twoknn.NewRelation("A", clustered)
	if err != nil {
		t.Fatal(err)
	}
	b := uniformRelation(t, "B", 200, 42)
	c := uniformRelation(t, "C", 120, 43)

	var explain string
	base, err := twoknn.UnchainedJoins(a, b, c, 2, 2, twoknn.WithExplain(&explain))
	if err != nil {
		t.Fatal(err)
	}
	twoknn.SortTriples(base)
	if !strings.Contains(explain, "∩B") {
		t.Errorf("explain missing ∩B:\n%s", explain)
	}

	for _, order := range []twoknn.JoinOrder{twoknn.OrderABFirst, twoknn.OrderCBFirst} {
		got, err := twoknn.UnchainedJoins(a, b, c, 2, 2, twoknn.WithJoinOrder(order))
		if err != nil {
			t.Fatal(err)
		}
		twoknn.SortTriples(got)
		if len(got) != len(base) {
			t.Fatalf("order %v: %d triples, want %d", order, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("order %v: triple %d differs", order, i)
			}
		}
	}

	if _, err := twoknn.UnchainedJoins(a, nil, c, 2, 2); err == nil {
		t.Errorf("nil relation must error")
	}
	if _, err := twoknn.UnchainedJoins(a, b, c, 2, 0); err == nil {
		t.Errorf("kCB=0 must error")
	}
}

func TestUnchainedUniformSkipsPreprocessing(t *testing.T) {
	a := uniformRelation(t, "A", 200, 51)
	b := uniformRelation(t, "B", 200, 52)
	c := uniformRelation(t, "C", 200, 53)

	var explain string
	if _, err := twoknn.UnchainedJoins(a, b, c, 2, 2, twoknn.WithExplain(&explain)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "no payoff") {
		t.Errorf("uniform relations should disable preprocessing:\n%s", explain)
	}
}

func TestChainedJoinsPublic(t *testing.T) {
	a := uniformRelation(t, "A", 80, 61)
	b := uniformRelation(t, "B", 120, 62)
	c := uniformRelation(t, "C", 100, 63)

	var base []twoknn.Triple
	qeps := []twoknn.ChainedQEP{twoknn.ChainedRightDeep, twoknn.ChainedJoinIntersection,
		twoknn.ChainedNestedJoin, twoknn.ChainedNestedJoinCached, twoknn.ChainedAuto}
	for i, qep := range qeps {
		got, err := twoknn.ChainedJoins(a, b, c, 2, 3, twoknn.WithChainedQEP(qep))
		if err != nil {
			t.Fatal(err)
		}
		twoknn.SortTriples(got)
		if i == 0 {
			base = got
			continue
		}
		if len(got) != len(base) {
			t.Fatalf("%v: %d triples, want %d", qep, len(got), len(base))
		}
		for j := range got {
			if got[j] != base[j] {
				t.Fatalf("%v: triple %d differs", qep, j)
			}
		}
	}

	var explain string
	if _, err := twoknn.ChainedJoins(a, b, c, 2, 3, twoknn.WithExplain(&explain)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "cache") {
		t.Errorf("auto explain should mention the cache:\n%s", explain)
	}
}

func TestTwoSelectsPublic(t *testing.T) {
	rel := uniformRelation(t, "houses", 600, 71)
	f1 := twoknn.Point{X: 300, Y: 300}
	f2 := twoknn.Point{X: 320, Y: 310}

	fast, err := twoknn.TwoSelects(rel, f1, 10, f2, 200)
	if err != nil {
		t.Fatal(err)
	}
	twoknn.SortPoints(fast)
	slow, err := twoknn.TwoSelects(rel, f1, 10, f2, 200, twoknn.WithAlgorithm(twoknn.AlgorithmConceptual))
	if err != nil {
		t.Fatal(err)
	}
	twoknn.SortPoints(slow)
	if len(fast) != len(slow) {
		t.Fatalf("2-kNN-select %d points, conceptual %d", len(fast), len(slow))
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("point %d differs", i)
		}
	}

	var explain string
	if _, err := twoknn.TwoSelects(rel, f1, 10, f2, 200, twoknn.WithExplain(&explain)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "clipped") {
		t.Errorf("explain should mention locality clipping:\n%s", explain)
	}
	if _, err := twoknn.TwoSelects(rel, f1, 0, f2, 5); err == nil {
		t.Errorf("k1=0 must error")
	}
}

func TestRangeInnerJoinPublic(t *testing.T) {
	outer := uniformRelation(t, "O", 200, 81)
	inner := uniformRelation(t, "I", 250, 82)
	rect := twoknn.NewRect(200, 200, 500, 500)

	var base []twoknn.Pair
	for i, alg := range []twoknn.Algorithm{twoknn.AlgorithmConceptual, twoknn.AlgorithmCounting, twoknn.AlgorithmBlockMarking} {
		got, err := twoknn.RangeInnerJoin(outer, inner, rect, 3, twoknn.WithAlgorithm(alg))
		if err != nil {
			t.Fatal(err)
		}
		twoknn.SortPairs(got)
		if i == 0 {
			base = got
			continue
		}
		if len(got) != len(base) {
			t.Fatalf("%v: %d pairs, want %d", alg, len(got), len(base))
		}
		for j := range got {
			if got[j] != base[j] {
				t.Fatalf("%v: pair %d differs", alg, j)
			}
		}
	}
	for _, pr := range base {
		if !rect.Contains(pr.Right) {
			t.Fatalf("pair %v has inner point outside the rectangle", pr)
		}
	}
}

func TestRelationClone(t *testing.T) {
	rel := uniformRelation(t, "R", 300, 91)
	clone := rel.Clone()
	f := twoknn.Point{X: 100, Y: 900}

	a, err := rel.KNNSelect(f, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := clone.KNNSelect(f, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("clone disagrees")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clone result %d differs", i)
		}
	}
}

// TestConcurrentClones exercises cloned relations from several goroutines
// under the race detector.
func TestConcurrentClones(t *testing.T) {
	rel := uniformRelation(t, "R", 400, 92)
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(seed int64) {
			c := rel.Clone()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				f := twoknn.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
				if _, err := c.KNNSelect(f, 5); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestExhaustivePreprocessingOption(t *testing.T) {
	outer := uniformRelation(t, "O", 150, 93)
	inner := uniformRelation(t, "I", 200, 94)
	f := twoknn.Point{X: 500, Y: 500}

	a, err := twoknn.SelectInnerJoin(outer, inner, f, 3, 5, twoknn.WithAlgorithm(twoknn.AlgorithmBlockMarking))
	if err != nil {
		t.Fatal(err)
	}
	b, err := twoknn.SelectInnerJoin(outer, inner, f, 3, 5,
		twoknn.WithAlgorithm(twoknn.AlgorithmBlockMarking), twoknn.WithExhaustivePreprocessing())
	if err != nil {
		t.Fatal(err)
	}
	twoknn.SortPairs(a)
	twoknn.SortPairs(b)
	if len(a) != len(b) {
		t.Fatalf("exhaustive preprocessing changed the answer: %d vs %d", len(a), len(b))
	}
}

// TestAutoNamesBothPrunes: Auto has no cardinality rule. On either side of
// the 30,000-point outer that once switched it from Counting to
// Block-Marking, EXPLAIN names the same plan — the block marking, then the
// tuple prune — and the counters show both prunes at work.
func TestAutoNamesBothPrunes(t *testing.T) {
	inner := uniformRelation(t, "I", 3000, 96, twoknn.WithBlockCapacity(16))
	f := twoknn.Point{X: 500, Y: 500}
	for _, n := range []int{500, 30001} {
		outer := uniformRelation(t, "O", n, 95, twoknn.WithBlockCapacity(16))
		var explain string
		var st twoknn.Stats
		if _, err := twoknn.SelectInnerJoin(outer, inner, f, 10, 5, twoknn.WithExplain(&explain), twoknn.WithStats(&st)); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"strategy: auto (block-marking, then counting", "counting prunes tuples", "mark-blocks [contour"} {
			if !strings.Contains(explain, want) {
				t.Errorf("|outer|=%d: EXPLAIN lacks %q:\n%s", n, want, explain)
			}
		}
		if st.BlocksPruned == 0 || st.OuterSkipped == 0 {
			t.Errorf("|outer|=%d: blocks pruned %d, tuples skipped %d: want both prunes to fire", n, st.BlocksPruned, st.OuterSkipped)
		}
	}
}

// TestSelectOuterJoinHugeKJoin: the result is sized by min(kJoin, |inner|)
// rows per selected tuple, not by kJoin. A kJoin far beyond the inner
// relation returns every inner point per selected tuple and allocates only
// what it returns — no up-front block of kSel·kJoin pairs, which for
// kJoin = 2⁴⁰ cannot even be made.
func TestSelectOuterJoinHugeKJoin(t *testing.T) {
	outer := uniformRelation(t, "O", 200, 61)
	inner := uniformRelation(t, "I", 20, 62)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pairs, err := twoknn.SelectOuterJoin(outer, inner, twoknn.Point{X: 500, Y: 500}, 10, 1<<40)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 10*20 {
		t.Errorf("%d rows, want 200: each of the 10 selected tuples joins all 20 inner points", len(pairs))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("allocated %d bytes for 200 rows, want ≤ 1 MiB", got)
	}
}

func TestKNNJoinWithConcurrency(t *testing.T) {
	outer := uniformRelation(t, "O", 400, 97)
	inner := uniformRelation(t, "I", 400, 98)

	seq, err := twoknn.KNNJoin(outer, inner, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{-1, 0, 2, 8} {
		par, err := twoknn.KNNJoin(outer, inner, 3, twoknn.WithConcurrency(workers))
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d pairs, want %d", workers, len(par), len(seq))
		}
		for i := range par {
			if par[i] != seq[i] {
				t.Fatalf("workers=%d: pair %d differs from sequential", workers, i)
			}
		}
	}
}

// TestStablePointIDs checks the PR 3 identity surface: a point's ID is its
// position in the input slice, identical across index kinds, and PointByID
// inverts the index permutation.
func TestStablePointIDs(t *testing.T) {
	var pts []twoknn.Point // 225 distinct points on a lattice
	for gx := 0; gx < 15; gx++ {
		for gy := 0; gy < 15; gy++ {
			pts = append(pts, twoknn.Point{X: float64(gx) * 7, Y: float64(gy) * 5})
		}
	}
	kinds := []twoknn.IndexKind{
		twoknn.GridIndex, twoknn.QuadtreeIndex,
	}
	for _, kind := range kinds {
		rel, err := twoknn.NewRelation("ids", pts,
			twoknn.WithIndexKind(kind), twoknn.WithBlockCapacity(16))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if rel.Len() != len(pts) {
			t.Fatalf("%v: Len = %d, want %d", kind, rel.Len(), len(pts))
		}
		ids := rel.PointIDs()
		seen := make([]bool, len(pts))
		for i, id := range ids {
			if id < 0 || int(id) >= len(pts) {
				t.Fatalf("%v: ID %d out of range", kind, id)
			}
			if seen[id] {
				t.Fatalf("%v: ID %d duplicated", kind, id)
			}
			seen[id] = true
			// The i-th scan-order point carries the ID of its input position.
			if rel.PointAt(i) != pts[id] {
				t.Fatalf("%v: PointAt(%d) = %v, want input[%d] = %v", kind, i, rel.PointAt(i), id, pts[id])
			}
			if rel.PointID(i) != id {
				t.Fatalf("%v: PointID(%d) = %d, want %d", kind, i, rel.PointID(i), id)
			}
		}
		for id := range pts {
			p, ok := rel.PointByID(int32(id))
			if !ok || p != pts[id] {
				t.Fatalf("%v: PointByID(%d) = %v, %v; want %v", kind, id, p, ok, pts[id])
			}
		}
		if _, ok := rel.PointByID(int32(len(pts))); ok {
			t.Fatalf("%v: PointByID out of range must report !ok", kind)
		}
		if _, ok := rel.PointByID(-1); ok {
			t.Fatalf("%v: PointByID(-1) must report !ok", kind)
		}
	}
}
