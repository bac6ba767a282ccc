package twoknn_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	twoknn "repro"
	"repro/internal/datagen"
)

// This file is the differential oracle for the sharded scatter/gather
// subsystem: for every query shape x shard count x partitioning policy x
// index kind x dataset family, the sharded evaluation must be byte-identical
// (after canonical sort, for the join shapes whose single-relation order is
// scan-dependent) to the single-relation evaluation over the same points.
// It extends the cross-layout equivalence scaffolding introduced with the
// columnar store (internal/core/layout_equiv_test.go) up through the public
// API.

var (
	oracleBounds = twoknn.NewRect(0, 0, 1000, 1000)
	oracleFocal  = twoknn.Point{X: 420, Y: 510}
	oracleFocal2 = twoknn.Point{X: 710, Y: 130}
	oracleRange  = twoknn.NewRect(300, 300, 620, 700)
)

// oracleDataset returns the three relations' points for one dataset family.
func oracleDataset(t *testing.T, family string) (a, b, c []twoknn.Point) {
	t.Helper()
	switch family {
	case "uniform":
		return datagen.Uniform(240, oracleBounds, 101),
			datagen.Uniform(200, oracleBounds, 202),
			datagen.Uniform(160, oracleBounds, 303)
	case "clustered":
		gen := func(seed int64, clusters, per int) []twoknn.Point {
			pts, err := datagen.Clustered(datagen.ClusterConfig{
				NumClusters:      clusters,
				PointsPerCluster: per,
				Radius:           60,
				Bounds:           oracleBounds,
				Seed:             seed,
			})
			if err != nil {
				t.Fatalf("datagen.Clustered: %v", err)
			}
			return pts
		}
		return gen(11, 6, 40), gen(22, 5, 40), gen(33, 4, 40)
	default:
		t.Fatalf("unknown dataset family %q", family)
		return nil, nil, nil
	}
}

func buildSingle(t *testing.T, name string, pts []twoknn.Point, kind twoknn.IndexKind) *twoknn.Relation {
	t.Helper()
	rel, err := twoknn.NewRelation(name, pts,
		twoknn.WithIndexKind(kind), twoknn.WithBlockCapacity(16), twoknn.WithBounds(oracleBounds))
	if err != nil {
		t.Fatalf("NewRelation(%s): %v", name, err)
	}
	return rel
}

// buildSharded builds without WithBounds, so each shard's index fits its
// own extent — the matrix then also covers the fitted-geometry layout
// (the explicit-common-bounds layout is covered by the concurrent and
// basics tests, which pass WithBounds).
func buildSharded(t *testing.T, name string, pts []twoknn.Point, kind twoknn.IndexKind, s int, policy twoknn.ShardPolicy) *twoknn.ShardedRelation {
	t.Helper()
	rel, err := twoknn.NewShardedRelation(name, pts, s,
		twoknn.WithIndexKind(kind), twoknn.WithBlockCapacity(16),
		twoknn.WithShardPolicy(policy))
	if err != nil {
		t.Fatalf("NewShardedRelation(%s): %v", name, err)
	}
	return rel
}

// oracleExpected holds the single-relation answers the sharded evaluations
// must reproduce, canonically sorted where the shape's order is
// scan-dependent.
type oracleExpected struct {
	knnSelect     []twoknn.Point // distance order, compared byte-for-byte
	knnSelectBig  []twoknn.Point // k > |relation|
	knnJoin       []twoknn.Pair
	selInner      map[twoknn.Algorithm][]twoknn.Pair
	selOuter      []twoknn.Pair
	twoSel        []twoknn.Point // intersection order, compared byte-for-byte
	twoSelConc    []twoknn.Point
	unchained     []twoknn.Triple
	chained       []twoknn.Triple
	rangeInner    map[twoknn.Algorithm][]twoknn.Pair
	selfJoin      []twoknn.Pair // b joined with itself
	joinBigK      []twoknn.Pair // k > |inner|
	oracleAlgList []twoknn.Algorithm
}

const (
	oracleKSel  = 9
	oracleKJoin = 3
	oracleK1    = 5
	oracleK2    = 40
	oracleKAB   = 2
	oracleKCB   = 3
)

func computeExpected(t *testing.T, a, b, c *twoknn.Relation) *oracleExpected {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	exp := &oracleExpected{
		selInner:      make(map[twoknn.Algorithm][]twoknn.Pair),
		rangeInner:    make(map[twoknn.Algorithm][]twoknn.Pair),
		oracleAlgList: []twoknn.Algorithm{twoknn.AlgorithmConceptual, twoknn.AlgorithmCounting, twoknn.AlgorithmBlockMarking},
	}
	var err error

	exp.knnSelect, err = a.KNNSelect(oracleFocal, 7)
	must(err)
	exp.knnSelectBig, err = a.KNNSelect(oracleFocal, a.Len()+10)
	must(err)

	exp.knnJoin, err = twoknn.KNNJoin(a, b, oracleKJoin)
	must(err)
	twoknn.SortPairs(exp.knnJoin)

	exp.joinBigK, err = twoknn.KNNJoin(a, b, b.Len()+5)
	must(err)
	twoknn.SortPairs(exp.joinBigK)

	exp.selfJoin, err = twoknn.KNNJoin(b, b, oracleKJoin)
	must(err)
	twoknn.SortPairs(exp.selfJoin)

	for _, alg := range exp.oracleAlgList {
		pairs, err := twoknn.SelectInnerJoin(a, b, oracleFocal, oracleKJoin, oracleKSel, twoknn.WithAlgorithm(alg))
		must(err)
		twoknn.SortPairs(pairs)
		exp.selInner[alg] = pairs

		pairs, err = twoknn.RangeInnerJoin(a, b, oracleRange, oracleKJoin, twoknn.WithAlgorithm(alg))
		must(err)
		twoknn.SortPairs(pairs)
		exp.rangeInner[alg] = pairs
	}

	exp.selOuter, err = twoknn.SelectOuterJoin(a, b, oracleFocal, oracleKSel, oracleKJoin)
	must(err)
	twoknn.SortPairs(exp.selOuter)

	exp.twoSel, err = twoknn.TwoSelects(b, oracleFocal, oracleK1, oracleFocal2, oracleK2)
	must(err)
	exp.twoSelConc, err = twoknn.TwoSelects(b, oracleFocal, oracleK1, oracleFocal2, oracleK2,
		twoknn.WithAlgorithm(twoknn.AlgorithmConceptual))
	must(err)

	exp.unchained, err = twoknn.UnchainedJoins(a, b, c, oracleKAB, oracleKCB)
	must(err)
	twoknn.SortTriples(exp.unchained)

	exp.chained, err = twoknn.ChainedJoins(a, b, c, oracleKAB, oracleKCB)
	must(err)
	twoknn.SortTriples(exp.chained)

	return exp
}

// checkShardedBattery runs every query shape against the sharded (or mixed)
// operands and compares with the expected single-relation answers.
func checkShardedBattery(t *testing.T, exp *oracleExpected, a, b, c twoknn.Source, opts ...twoknn.QueryOption) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	if sa, ok := a.(*twoknn.ShardedRelation); ok {
		got, err := sa.KNNSelect(oracleFocal, 7, opts...)
		must(err)
		samePoints(t, "KNNSelect", exp.knnSelect, got, false)
		got, err = sa.KNNSelect(oracleFocal, sa.Len()+10, opts...)
		must(err)
		samePoints(t, "KNNSelect k>|E|", exp.knnSelectBig, got, false)
	}

	got, err := twoknn.KNNJoin(a, b, oracleKJoin, opts...)
	must(err)
	samePairs(t, "KNNJoin", exp.knnJoin, got)

	got, err = twoknn.KNNJoin(a, b, b.Len()+5, opts...)
	must(err)
	samePairs(t, "KNNJoin k>|inner|", exp.joinBigK, got)

	got, err = twoknn.KNNJoin(b, b, oracleKJoin, opts...)
	must(err)
	samePairs(t, "KNNJoin self", exp.selfJoin, got)

	for _, alg := range exp.oracleAlgList {
		algOpts := append([]twoknn.QueryOption{twoknn.WithAlgorithm(alg)}, opts...)
		got, err = twoknn.SelectInnerJoin(a, b, oracleFocal, oracleKJoin, oracleKSel, algOpts...)
		must(err)
		samePairs(t, fmt.Sprintf("SelectInnerJoin/%s", alg), exp.selInner[alg], got)

		got, err = twoknn.RangeInnerJoin(a, b, oracleRange, oracleKJoin, algOpts...)
		must(err)
		samePairs(t, fmt.Sprintf("RangeInnerJoin/%s", alg), exp.rangeInner[alg], got)
	}

	got, err = twoknn.SelectOuterJoin(a, b, oracleFocal, oracleKSel, oracleKJoin, opts...)
	must(err)
	samePairs(t, "SelectOuterJoin", exp.selOuter, got)

	pts, err := twoknn.TwoSelects(b, oracleFocal, oracleK1, oracleFocal2, oracleK2, opts...)
	must(err)
	samePoints(t, "TwoSelects", exp.twoSel, pts, false)

	pts, err = twoknn.TwoSelects(b, oracleFocal, oracleK1, oracleFocal2, oracleK2,
		append([]twoknn.QueryOption{twoknn.WithAlgorithm(twoknn.AlgorithmConceptual)}, opts...)...)
	must(err)
	samePoints(t, "TwoSelects/conceptual", exp.twoSelConc, pts, false)

	triples, err := twoknn.UnchainedJoins(a, b, c, oracleKAB, oracleKCB, opts...)
	must(err)
	sameTriples(t, "UnchainedJoins", exp.unchained, triples)

	triples, err = twoknn.ChainedJoins(a, b, c, oracleKAB, oracleKCB, opts...)
	must(err)
	sameTriples(t, "ChainedJoins", exp.chained, triples)
}

func samePoints(t *testing.T, what string, want, got []twoknn.Point, sortFirst bool) {
	t.Helper()
	if sortFirst {
		want = append([]twoknn.Point(nil), want...)
		got = append([]twoknn.Point(nil), got...)
		twoknn.SortPoints(want)
		twoknn.SortPoints(got)
	}
	if len(want) == 0 && len(got) == 0 {
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: sharded result differs:\n got %d points %v\nwant %d points %v",
			what, len(got), truncPts(got), len(want), truncPts(want))
	}
}

// samePairs compares pair multisets in canonical order. Both sides are
// sorted into SortPairs order first: the expected side already is, but a
// battery run with all-single operands (the mixed-operand tests) goes
// through the single-relation path whose output is scan-ordered.
func samePairs(t *testing.T, what string, want, got []twoknn.Pair) {
	t.Helper()
	if len(want) == 0 && len(got) == 0 {
		return
	}
	want = append([]twoknn.Pair(nil), want...)
	got = append([]twoknn.Pair(nil), got...)
	twoknn.SortPairs(want)
	twoknn.SortPairs(got)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: sharded result differs: got %d pairs, want %d pairs", what, len(got), len(want))
	}
}

// sameTriples is samePairs for triples.
func sameTriples(t *testing.T, what string, want, got []twoknn.Triple) {
	t.Helper()
	if len(want) == 0 && len(got) == 0 {
		return
	}
	want = append([]twoknn.Triple(nil), want...)
	got = append([]twoknn.Triple(nil), got...)
	twoknn.SortTriples(want)
	twoknn.SortTriples(got)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: sharded result differs: got %d triples, want %d triples", what, len(got), len(want))
	}
}

func truncPts(ps []twoknn.Point) []twoknn.Point {
	if len(ps) > 8 {
		return ps[:8]
	}
	return ps
}

// TestShardedDifferentialOracle is the satellite-1 matrix: every query shape
// x {1, 2, 3, 7} shards x {hash, spatial} policy x both index kinds x
// {uniform, clustered} datasets, sharded results byte-identical (after
// canonical sort) to the single-relation path. The expected answers are
// computed once per (kind, dataset) and reused across the policy/shard-count
// grid; canonical sorting of the comparator side happens there too.
func TestShardedDifferentialOracle(t *testing.T) {
	kinds := []twoknn.IndexKind{twoknn.GridIndex, twoknn.QuadtreeIndex}
	policies := []twoknn.ShardPolicy{twoknn.HashSharding, twoknn.SpatialSharding}
	shardCounts := []int{1, 2, 3, 7}

	for _, family := range []string{"uniform", "clustered"} {
		ptsA, ptsB, ptsC := oracleDataset(t, family)
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s/%s", family, kind), func(t *testing.T) {
				a := buildSingle(t, "A", ptsA, kind)
				b := buildSingle(t, "B", ptsB, kind)
				c := buildSingle(t, "C", ptsC, kind)
				exp := computeExpected(t, a, b, c)

				for _, policy := range policies {
					for _, s := range shardCounts {
						t.Run(fmt.Sprintf("%s/S=%d", policy, s), func(t *testing.T) {
							sa := buildSharded(t, "A", ptsA, kind, s, policy)
							sb := buildSharded(t, "B", ptsB, kind, s, policy)
							sc := buildSharded(t, "C", ptsC, kind, s, policy)
							checkShardedBattery(t, exp, sa, sb, sc)
						})
					}
				}
			})
		}
	}
}

// TestShardedMixedOperandsAndConcurrency spot-checks the dispatch corners
// the full matrix would make too expensive everywhere: mixed single/sharded
// operands in every position, and intra-query fan-out via WithConcurrency on
// sharded operands.
func TestShardedMixedOperandsAndConcurrency(t *testing.T) {
	ptsA, ptsB, ptsC := oracleDataset(t, "uniform")
	kind := twoknn.GridIndex
	a := buildSingle(t, "A", ptsA, kind)
	b := buildSingle(t, "B", ptsB, kind)
	c := buildSingle(t, "C", ptsC, kind)
	exp := computeExpected(t, a, b, c)

	sa := buildSharded(t, "A", ptsA, kind, 3, twoknn.HashSharding)
	sb := buildSharded(t, "B", ptsB, kind, 2, twoknn.SpatialSharding)
	sc := buildSharded(t, "C", ptsC, kind, 4, twoknn.HashSharding)

	t.Run("sharded-outer", func(t *testing.T) { checkShardedBattery(t, exp, sa, b, c) })
	t.Run("sharded-inner", func(t *testing.T) { checkShardedBattery(t, exp, a, sb, sc) })
	t.Run("all-sharded-concurrent", func(t *testing.T) {
		checkShardedBattery(t, exp, sa, sb, sc, twoknn.WithConcurrency(3))
	})
}

// TestShardCountInvariance is the satellite-3 property: query answers are
// independent of the shard count — for a fixed dataset, every S produces the
// same result as S=1, under both policies.
func TestShardCountInvariance(t *testing.T) {
	ptsA, ptsB, ptsC := oracleDataset(t, "clustered")
	for _, policy := range []twoknn.ShardPolicy{twoknn.HashSharding, twoknn.SpatialSharding} {
		base1A := buildSharded(t, "A", ptsA, twoknn.GridIndex, 1, policy)
		base1B := buildSharded(t, "B", ptsB, twoknn.GridIndex, 1, policy)
		base1C := buildSharded(t, "C", ptsC, twoknn.GridIndex, 1, policy)
		ref := shapeSignature(t, base1A, base1B, base1C)
		for _, s := range []int{2, 3, 5} {
			sa := buildSharded(t, "A", ptsA, twoknn.GridIndex, s, policy)
			sb := buildSharded(t, "B", ptsB, twoknn.GridIndex, s, policy)
			sc := buildSharded(t, "C", ptsC, twoknn.GridIndex, s, policy)
			got := shapeSignature(t, sa, sb, sc)
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("%v: results at S=%d differ from S=1", policy, s)
			}
		}
	}
}

// shapeSignature evaluates one query per shape and packs the results for
// whole-battery comparison.
func shapeSignature(t *testing.T, a, b, c twoknn.Source, opts ...twoknn.QueryOption) map[string]any {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	sig := make(map[string]any)
	if sa, ok := a.(*twoknn.ShardedRelation); ok {
		pts, err := sa.KNNSelect(oracleFocal, 7, opts...)
		must(err)
		sig["knnselect"] = pts
	}
	pairs, err := twoknn.KNNJoin(a, b, oracleKJoin, opts...)
	must(err)
	sig["knnjoin"] = pairs
	pairs, err = twoknn.SelectInnerJoin(a, b, oracleFocal, oracleKJoin, oracleKSel, opts...)
	must(err)
	sig["selinner"] = pairs
	pairs, err = twoknn.SelectOuterJoin(a, b, oracleFocal, oracleKSel, oracleKJoin, opts...)
	must(err)
	sig["selouter"] = pairs
	pts, err := twoknn.TwoSelects(b, oracleFocal, oracleK1, oracleFocal2, oracleK2, opts...)
	must(err)
	sig["twosel"] = pts
	triples, err := twoknn.UnchainedJoins(a, b, c, oracleKAB, oracleKCB, opts...)
	must(err)
	sig["unchained"] = triples
	triples, err = twoknn.ChainedJoins(a, b, c, oracleKAB, oracleKCB, opts...)
	must(err)
	sig["chained"] = triples
	pairs, err = twoknn.RangeInnerJoin(a, b, oracleRange, oracleKJoin, opts...)
	must(err)
	sig["range"] = pairs
	return sig
}

// TestShardedPermutationInvariance is the satellite-3 property: shuffling
// the input point order never changes any (sorted) query answer, sharded or
// not — stable IDs shift, results do not.
func TestShardedPermutationInvariance(t *testing.T) {
	ptsA, ptsB, ptsC := oracleDataset(t, "uniform")
	shuffle := func(pts []twoknn.Point, seed int64) []twoknn.Point {
		out := append([]twoknn.Point(nil), pts...)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	build := func(t *testing.T, a, b, c []twoknn.Point) (twoknn.Source, twoknn.Source, twoknn.Source) {
		return buildSharded(t, "A", a, twoknn.GridIndex, 3, twoknn.SpatialSharding),
			buildSharded(t, "B", b, twoknn.GridIndex, 3, twoknn.SpatialSharding),
			buildSharded(t, "C", c, twoknn.GridIndex, 3, twoknn.SpatialSharding)
	}
	a0, b0, c0 := build(t, ptsA, ptsB, ptsC)
	ref := shapeSignature(t, a0, b0, c0)
	for _, seed := range []int64{1, 2, 3} {
		a1, b1, c1 := build(t, shuffle(ptsA, seed), shuffle(ptsB, seed+10), shuffle(ptsC, seed+20))
		got := shapeSignature(t, a1, b1, c1)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("seed %d: shuffled input changed a sorted query answer", seed)
		}
	}
	// The single-relation path must be permutation-invariant too (its
	// KNNSelect order is distance-based, its join outputs are compared
	// sorted inside shapeSignature via the sharded gather... so check the
	// raw single path explicitly on one shape).
	s0 := buildSingle(t, "B", ptsB, twoknn.GridIndex)
	s1 := buildSingle(t, "B", shuffle(ptsB, 9), twoknn.GridIndex)
	r0, err := s0.KNNSelect(oracleFocal, 12)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s1.KNNSelect(oracleFocal, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r0, r1) {
		t.Fatalf("single-relation KNNSelect changed under input permutation")
	}
}

// TestShardedRelationBasics covers construction metadata: shard counts,
// policies, preserved cardinality, empty relations and invalid shard counts.
func TestShardedRelationBasics(t *testing.T) {
	pts := datagen.Uniform(100, oracleBounds, 5)
	sr := buildSharded(t, "basics", pts, twoknn.QuadtreeIndex, 4, twoknn.SpatialSharding)
	if sr.NumShards() != 4 || sr.Policy() != twoknn.SpatialSharding || sr.IndexKind() != twoknn.QuadtreeIndex {
		t.Fatalf("metadata mismatch: %d shards, %v, %v", sr.NumShards(), sr.Policy(), sr.IndexKind())
	}

	// An explicit WithBounds is the relation's Bounds(), exactly as for a
	// single Relation; without it the bounds are the input extent.
	wide := twoknn.NewRect(-500, -500, 2000, 2000)
	srBounded, err := twoknn.NewShardedRelation("bounded", pts, 3, twoknn.WithBounds(wide))
	if err != nil {
		t.Fatal(err)
	}
	if srBounded.Bounds() != wide {
		t.Fatalf("explicit bounds not respected: got %v, want %v", srBounded.Bounds(), wide)
	}
	extent := sr.Bounds()
	for _, p := range pts {
		if !extent.Contains(p) {
			t.Fatalf("derived bounds %v do not contain %v", extent, p)
		}
	}
	total := 0
	for _, n := range sr.ShardLens() {
		total += n
	}
	if total != 100 || sr.Len() != 100 {
		t.Fatalf("cardinality mismatch: shards sum %d, Len %d", total, sr.Len())
	}
	if got := sr.Name(); got != "basics" {
		t.Fatalf("Name = %q", got)
	}

	if _, err := twoknn.NewShardedRelation("bad", pts, 0); err == nil {
		t.Errorf("0 shards must error")
	}
	if _, err := twoknn.NewShardedRelation("empty", nil, 2); err == nil {
		t.Errorf("empty without bounds must error")
	}
	empty, err := twoknn.NewShardedRelation("empty", nil, 3, twoknn.WithBounds(oracleBounds))
	if err != nil {
		t.Fatalf("empty with bounds must build: %v", err)
	}
	got, err := empty.KNNSelect(oracleFocal, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty sharded relation returned %d points", len(got))
	}

	// More shards than points: every point still lands somewhere, queries
	// stay exact.
	tiny := datagen.Uniform(3, oracleBounds, 6)
	srTiny := buildSharded(t, "tiny", tiny, twoknn.GridIndex, 7, twoknn.SpatialSharding)
	single := buildSingle(t, "tiny", tiny, twoknn.GridIndex)
	want, err := single.KNNSelect(oracleFocal, 3)
	if err != nil {
		t.Fatal(err)
	}
	gotTiny, err := srTiny.KNNSelect(oracleFocal, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, gotTiny) {
		t.Fatalf("tiny sharded select differs: got %v want %v", gotTiny, want)
	}
}

// TestShardedSnapshot checks the per-shard and aggregate stats surface.
func TestShardedSnapshot(t *testing.T) {
	pts := datagen.Uniform(300, oracleBounds, 7)
	sr := buildSharded(t, "stats", pts, twoknn.GridIndex, 3, twoknn.HashSharding)
	per, total := sr.Snapshot()
	if len(per) != 3 || total.Neighborhoods != 0 {
		t.Fatalf("fresh snapshot: %d shards, %d neighborhoods", len(per), total.Neighborhoods)
	}
	if _, err := sr.KNNSelect(oracleFocal, 5); err != nil {
		t.Fatal(err)
	}
	per, total = sr.Snapshot()
	var sum twoknn.Stats
	points := 0
	for i, ps := range per {
		if ps.Shard != i {
			t.Fatalf("shard index %d at position %d", ps.Shard, i)
		}
		if ps.Ops.Neighborhoods != 1 {
			t.Fatalf("shard %d recorded %d neighborhoods, want 1", i, ps.Ops.Neighborhoods)
		}
		points += ps.Points
		snap := ps.Ops
		sum.Add(&snap)
	}
	if points != 300 {
		t.Fatalf("per-shard points sum to %d", points)
	}
	if sum != total {
		t.Fatalf("aggregate %+v != per-shard sum %+v", total, sum)
	}
}

// TestShardedExplain checks the EXPLAIN surface mentions the scatter/gather
// execution and the shard layout.
func TestShardedExplain(t *testing.T) {
	ptsA, ptsB, _ := oracleDataset(t, "uniform")
	sa := buildSharded(t, "left", ptsA, twoknn.GridIndex, 3, twoknn.HashSharding)
	b := buildSingle(t, "right", ptsB, twoknn.GridIndex)
	var explain string
	if _, err := twoknn.SelectInnerJoin(sa, b, oracleFocal, 2, 4, twoknn.WithExplain(&explain)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scatter/gather", "left", "3 hash shard(s)", "right", "un-sharded"} {
		if !containsStr(explain, want) {
			t.Fatalf("explain missing %q:\n%s", want, explain)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
