package shard

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/index/grid"
	"repro/internal/locality"
	"repro/internal/stats"
	"repro/internal/testutil"
)

var testBounds = geom.NewRect(0, 0, 1000, 1000)

func gridBuild(st *geom.PointStore) (index.Index, error) {
	return grid.NewFromStore(st, grid.Options{TargetPerCell: 16, Bounds: testBounds})
}

func testPoints(n int, seed int64) []geom.Point {
	return testutil.UniformPoints(n, testBounds, seed)
}

// TestPartitionPreservesIDs checks that every policy scatters each input
// point — with its global stable ID — to exactly one shard.
func TestPartitionPreservesIDs(t *testing.T) {
	pts := testPoints(257, 1)
	for _, policy := range []Policy{PolicyHash, PolicySpatial} {
		for _, s := range []int{1, 2, 3, 7, 300} {
			stores := Partition(pts, s, policy)
			if len(stores) != s {
				t.Fatalf("%v/%d: got %d stores", policy, s, len(stores))
			}
			seen := make([]int, len(pts))
			total := 0
			for _, st := range stores {
				total += st.Len()
				for i := 0; i < st.Len(); i++ {
					id := int(st.ID(i))
					if id < 0 || id >= len(pts) {
						t.Fatalf("%v/%d: ID %d out of range", policy, s, id)
					}
					seen[id]++
					if st.At(i) != pts[id] {
						t.Fatalf("%v/%d: ID %d carries %v, want %v", policy, s, id, st.At(i), pts[id])
					}
				}
			}
			if total != len(pts) {
				t.Fatalf("%v/%d: partition holds %d points, want %d", policy, s, total, len(pts))
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("%v/%d: ID %d appears %d times", policy, s, id, n)
				}
			}
		}
	}
}

// TestPartitionDeterministic checks the partition is a pure function of its
// inputs.
func TestPartitionDeterministic(t *testing.T) {
	pts := testPoints(123, 2)
	for _, policy := range []Policy{PolicyHash, PolicySpatial} {
		a := Partition(pts, 5, policy)
		b := Partition(pts, 5, policy)
		for i := range a {
			if !reflect.DeepEqual(a[i], b[i]) {
				t.Fatalf("%v: shard %d differs between runs", policy, i)
			}
		}
	}
}

// TestSpatialPartitionBalance checks the sort-tile cut keeps shard sizes
// within a couple of points of each other.
func TestSpatialPartitionBalance(t *testing.T) {
	pts := testPoints(500, 3)
	for _, s := range []int{2, 3, 4, 7, 9} {
		stores := Partition(pts, s, PolicySpatial)
		minLen, maxLen := stores[0].Len(), stores[0].Len()
		for _, st := range stores[1:] {
			if st.Len() < minLen {
				minLen = st.Len()
			}
			if st.Len() > maxLen {
				maxLen = st.Len()
			}
		}
		if maxLen-minLen > 2 {
			t.Fatalf("S=%d: shard sizes spread %d..%d", s, minLen, maxLen)
		}
	}
}

func buildGroup(t *testing.T, pts []geom.Point, s int, policy Policy) Group {
	t.Helper()
	rel, err := New(pts, s, policy, 0, gridBuild)
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	return rel.Group()
}

// TestMergedNeighborhoodExact compares the probe's merged neighborhoods
// against a single searcher over the unpartitioned points: same points, same
// order, same distances, at every shard count.
func TestMergedNeighborhoodExact(t *testing.T) {
	pts := testPoints(400, 4)
	ix, err := grid.New(pts, grid.Options{TargetPerCell: 16, Bounds: testBounds})
	if err != nil {
		t.Fatal(err)
	}
	single := core.NewRelation(ix)

	rng := rand.New(rand.NewSource(5))
	for _, policy := range []Policy{PolicyHash, PolicySpatial} {
		for _, s := range []int{1, 2, 3, 7} {
			g := buildGroup(t, pts, s, policy)
			pr := acquire(nil, g)
			for trial := 0; trial < 30; trial++ {
				f := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
				k := 1 + rng.Intn(20)
				want := single.S.Neighborhood(f, k, nil)
				got := pr.neighborhood(f, k)
				if !reflect.DeepEqual(want.Points, got.Points) {
					t.Fatalf("%v/S=%d: merged neighborhood of %v (k=%d) differs:\n got %v\nwant %v",
						policy, s, f, k, got.Points, want.Points)
				}
				if !reflect.DeepEqual(want.Dists, got.Dists) {
					t.Fatalf("%v/S=%d: merged distances differ", policy, s)
				}
			}
			pr.release(nil)
		}
	}
}

// TestMergedNeighborhoodKeepsDuplicates checks co-located points are not
// deduped by the gather: the merged multiset matches NaiveKNN over the raw
// points.
func TestMergedNeighborhoodKeepsDuplicates(t *testing.T) {
	pts := []geom.Point{
		{X: 10, Y: 10}, {X: 10, Y: 10}, {X: 10, Y: 10},
		{X: 500, Y: 500}, {X: 600, Y: 600}, {X: 10, Y: 20},
	}
	for _, s := range []int{2, 3} {
		g := buildGroup(t, pts, s, PolicyHash)
		pr := acquire(nil, g)
		f := geom.Point{X: 11, Y: 11}
		for k := 1; k <= len(pts); k++ {
			want := locality.NaiveKNN(pts, f, k)
			got := pr.neighborhood(f, k)
			if !reflect.DeepEqual(want.Points, got.Points) {
				t.Fatalf("S=%d k=%d: got %v, want %v", s, k, got.Points, want.Points)
			}
		}
		pr.release(nil)
	}
}

// gatheredJoin is the kNN-join over groups as the public layer runs it: the one
// core body, gathered into canonical order.
func gatheredJoin(outer, inner Group, k, workers int, c *stats.Counters) []core.Pair {
	out := core.Join(outer, inner, k, workers, c)
	core.SortPairs(out)
	return out
}

// TestJoinMatchesCore compares the join over groups against the core
// sequential join (canonically sorted) with sharded and mixed operands.
func TestJoinMatchesCore(t *testing.T) {
	outerPts := testPoints(220, 6)
	innerPts := testPoints(180, 7)
	outerIx, _ := grid.New(outerPts, grid.Options{TargetPerCell: 16, Bounds: testBounds})
	innerIx, _ := grid.New(innerPts, grid.Options{TargetPerCell: 16, Bounds: testBounds})
	outerSingle, innerSingle := core.NewRelation(outerIx), core.NewRelation(innerIx)

	want := core.KNNJoin(outerSingle, innerSingle.Acquire(), 4, nil)
	core.SortPairs(want)

	for _, workers := range []int{1, 3} {
		for _, policy := range []Policy{PolicyHash, PolicySpatial} {
			outerG := buildGroup(t, outerPts, 3, policy)
			innerG := buildGroup(t, innerPts, 2, policy)
			cases := map[string][2]Group{
				"both-sharded": {outerG, innerG},
				"outer-single": {SingleGroup(outerSingle), innerG},
				"inner-single": {outerG, SingleGroup(innerSingle)},
			}
			for name, gs := range cases {
				got := gatheredJoin(gs[0], gs[1], 4, workers, nil)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%v/%s/workers=%d: join differs (%d vs %d pairs)",
						policy, name, workers, len(got), len(want))
				}
			}
		}
	}
}

// TestProbeStatsFold checks probe operation counts land both in the group's
// per-shard lifetime counters and in the query counter.
func TestProbeStatsFold(t *testing.T) {
	pts := testPoints(300, 8)
	rel, err := New(pts, 3, PolicyHash, 0, gridBuild)
	if err != nil {
		t.Fatal(err)
	}
	var c stats.Counters
	pr := acquire(nil, rel.Group())
	pr.neighborhood(geom.Point{X: 500, Y: 500}, 5)
	pr.release(&c)

	if c.Neighborhoods != 3 {
		t.Fatalf("query counter saw %d neighborhoods, want 3 (one per shard)", c.Neighborhoods)
	}
	sum := int64(0)
	for i := 0; i < rel.NumShards(); i++ {
		snap := rel.ShardCounters(i).Snapshot()
		if snap.Neighborhoods != 1 {
			t.Fatalf("shard %d lifetime counter saw %d neighborhoods, want 1", i, snap.Neighborhoods)
		}
		sum += snap.PointsCompared
	}
	if sum != c.PointsCompared {
		t.Fatalf("per-shard PointsCompared sum %d != query counter %d", sum, c.PointsCompared)
	}
}

// TestBoundedPoolDegradation checks the scatter crew degrades instead of
// deadlocking when shard pools are bounded below the worker count, and the
// result is still exact.
func TestBoundedPoolDegradation(t *testing.T) {
	outerPts := testPoints(200, 9)
	innerPts := testPoints(150, 10)
	innerSharded, err := New(innerPts, 3, PolicySpatial, 1, gridBuild) // one handle per shard
	if err != nil {
		t.Fatal(err)
	}
	outerG := buildGroup(t, outerPts, 2, PolicyHash)

	outerIx, _ := grid.New(outerPts, grid.Options{TargetPerCell: 16, Bounds: testBounds})
	innerIx, _ := grid.New(innerPts, grid.Options{TargetPerCell: 16, Bounds: testBounds})
	want := core.KNNJoin(core.NewRelation(outerIx), core.NewRelation(innerIx).Acquire(), 3, nil)
	core.SortPairs(want)

	got := gatheredJoin(outerG, innerSharded.Group(), 3, 8, nil)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("degraded join differs: %d vs %d pairs", len(got), len(want))
	}
}

// countingMember counts the non-blocking acquisition attempts on a member.
type countingMember struct {
	Member
	tries *atomic.Int32
}

func (m countingMember) TryAcquire() (Prober, error) {
	m.tries.Add(1)
	return m.Member.TryAcquire()
}

// lastMember reports every handle borrowed from it: as the last member of a
// group, every probe assembled in full.
type lastMember struct {
	Member
	equipped func()
}

func (m lastMember) Acquire() Prober {
	p := m.Member.Acquire()
	m.equipped()
	return p
}

func (m lastMember) TryAcquire() (Prober, error) {
	p, err := m.Member.TryAcquire()
	if err == nil {
		m.equipped()
	}
	return p, err
}

// TestScatterCrewOnBoundedPools pins what a join over a group gets from the
// shared core.RunCrew driver instead of a goroutine crew of its own, on a
// 3-member group with bounded pools: workers that cannot assemble a full
// probe stand down (nobody waits holding half of one, every unit is still
// emitted exactly once), and a panic inside one worker surfaces once, on the
// caller, after every handle went back to its pool.
func TestScatterCrewOnBoundedPools(t *testing.T) {
	outerG := buildGroup(t, testPoints(200, 11), 2, PolicyHash)
	outstanding := func(rel *Relation) int {
		n := 0
		for i := 0; i < rel.NumShards(); i++ {
			n += rel.Shard(i).Pool().Outstanding()
		}
		return n
	}

	// One handle per shard: a single probe can exist at a time. Whichever
	// worker assembles it first holds it until the seven others have made
	// their one non-blocking attempt (counted on shard 0, the first handle
	// every probe asks for), so all of those stand down; only worker 0,
	// which blocks for its probe, may still be equipped once the units are
	// drained.
	one, err := New(testPoints(150, 12), 3, PolicySpatial, 1, gridBuild)
	if err != nil {
		t.Fatal(err)
	}
	var tries, equipped atomic.Int32
	members := append([]Member(nil), one.Group().members...)
	members[0] = countingMember{Member: members[0], tries: &tries}
	members[2] = lastMember{Member: members[2], equipped: func() {
		if equipped.Add(1) == 1 {
			for deadline := time.Now().Add(10 * time.Second); tries.Load() < 7; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Error("extra workers never attempted their probes")
					break
				}
			}
		}
	}}
	emitted := core.Join(outerG, MemberGroup(members, nil), 1, 8, nil)
	if len(emitted) != 200 {
		t.Fatalf("degraded crew emitted %d tuples, want each of 200 once", len(emitted))
	}
	if n := equipped.Load(); n > 2 {
		t.Fatalf("%d of 8 workers were equipped over pools of one handle, want the holder and at most worker 0", n)
	}
	if n := outstanding(one); n != 0 {
		t.Fatalf("%d handles outstanding after a degraded scatter", n)
	}

	// Two handles per shard, and the 40th probe of shard 2 crashes.
	two, err := New(testPoints(150, 12), 3, PolicySpatial, 2, gridBuild)
	if err != nil {
		t.Fatal(err)
	}
	var probes atomic.Int32
	fault.Arm(&fault.Injector{ShardProbe: func(s int) {
		if s == 2 && probes.Add(1) == 40 {
			panic("crew test: poisoned probe")
		}
	}})
	recovered := func() (r any) {
		defer fault.Disarm()
		defer func() { r = recover() }()
		gatheredJoin(outerG, two.Group(), 3, 8, new(stats.Counters))
		return nil
	}()
	if p, ok := recovered.(*fault.Panic); !ok || p.Value != "crew test: poisoned probe" {
		t.Fatalf("caller recovered %#v, want the worker's *fault.Panic", recovered)
	}
	if n := outstanding(two); n != 0 {
		t.Fatalf("%d handles outstanding after a worker panic", n)
	}
	// The pools survived the fault: the same join now runs clean.
	if got, want := gatheredJoin(outerG, two.Group(), 3, 8, nil), gatheredJoin(outerG, two.Group(), 3, 1, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("join after the fault differs: %d vs %d pairs", len(got), len(want))
	}
}
