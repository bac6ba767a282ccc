package overlay

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/index/grid"
)

// buildBase indexes n pseudo-random points under a grid and returns the
// index plus the points by stable ID.
func buildBase(t *testing.T, n int, seed int64) (index.Index, map[int32]geom.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	st := geom.NewPointStore(n)
	for i := 0; i < n; i++ {
		st.Append(geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
	}
	ix, err := grid.NewFromStore(st, grid.Options{TargetPerCell: 8})
	if err != nil {
		t.Fatalf("grid build: %v", err)
	}
	want := make(map[int32]geom.Point, n)
	gst := index.StoreOf(ix)
	for i := 0; i < gst.Len(); i++ {
		want[gst.ID(i)] = gst.At(i)
	}
	return ix, want
}

// liveSet walks a snapshot's blocks and returns every (ID, point) it holds.
func liveSet(t *testing.T, ix index.Index) map[int32]geom.Point {
	t.Helper()
	got := make(map[int32]geom.Point)
	for _, b := range ix.Blocks() {
		ids := b.PointIDs()
		for i := range ids {
			if _, dup := got[ids[i]]; dup {
				t.Fatalf("duplicate ID %d in snapshot", ids[i])
			}
			got[ids[i]] = b.PointAt(i)
			if !b.Bounds.Contains(b.PointAt(i)) {
				t.Fatalf("block %d bounds %v do not contain point %v", b.ID, b.Bounds, b.PointAt(i))
			}
		}
	}
	return got
}

func checkSnapshot(t *testing.T, s *Store, want map[int32]geom.Point) {
	t.Helper()
	ix := s.Snapshot()
	if ix.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(want))
	}
	if tc := index.TotalCount(ix); tc != len(want) {
		t.Fatalf("TotalCount = %d, want %d", tc, len(want))
	}
	got := liveSet(t, ix)
	for id, p := range want {
		g, ok := got[id]
		if !ok || g != p {
			t.Fatalf("ID %d: got %v (present %v), want %v", id, g, ok, p)
		}
		if !ix.Bounds().Contains(p) {
			t.Fatalf("Bounds %v does not contain live point %v", ix.Bounds(), p)
		}
	}
	for _, b := range ix.Blocks() {
		if ix.Blocks()[b.ID] != b {
			t.Fatalf("Blocks()[%d] != block with ID %d", b.ID, b.ID)
		}
	}
	// Lookup agrees with the live set.
	for id, p := range want {
		if g, ok := s.Lookup(id); !ok || g != p {
			t.Fatalf("Lookup(%d) = %v, %v; want %v, true", id, g, ok, p)
		}
	}
}

func TestStoreMutations(t *testing.T) {
	base, want := buildBase(t, 200, 1)
	s := NewStore(base, 8)

	if s.Mutated() {
		t.Fatal("fresh store reports Mutated")
	}
	if got := s.Snapshot(); got != base {
		t.Fatal("unmutated Snapshot should return the base index")
	}

	// Inserts, including co-located duplicates of existing points.
	next := int32(200)
	ins := []geom.Point{{X: 1, Y: 1}, {X: 1, Y: 1}, {X: 250, Y: -50}, want[0]}
	for _, p := range ins {
		s.Insert(p, next)
		want[next] = p
		next++
	}
	checkSnapshot(t, s, want)

	// Remove a mix of base and delta points; unknown IDs are rejected.
	for _, id := range []int32{0, 5, 7, 201, 203} {
		if !s.Remove(id) {
			t.Fatalf("Remove(%d) = false, want true", id)
		}
		delete(want, id)
	}
	if s.Remove(9999) || s.Remove(5) {
		t.Fatal("Remove of unknown/dead ID should return false")
	}
	checkSnapshot(t, s, want)

	// Reinsert a removed base ID: the delta incarnation wins.
	s.Insert(geom.Point{X: 42, Y: 42}, 5)
	want[5] = geom.Point{X: 42, Y: 42}
	checkSnapshot(t, s, want)
	if !s.Remove(5) {
		t.Fatal("Remove of reinserted ID failed")
	}
	delete(want, 5)
	checkSnapshot(t, s, want)

	if got, wantLive := s.DeltaLive(), 2; got != wantLive {
		t.Fatalf("DeltaLive = %d, want %d", got, wantLive)
	}
	if s.Tombstones() == 0 {
		t.Fatal("Tombstones = 0 after removals")
	}

	// LiveStore rebuilds exactly the live set.
	ls := s.LiveStore()
	if ls.Len() != len(want) {
		t.Fatalf("LiveStore len = %d, want %d", ls.Len(), len(want))
	}
	for i := 0; i < ls.Len(); i++ {
		if want[ls.ID(i)] != ls.At(i) {
			t.Fatalf("LiveStore[%d]: ID %d -> %v, want %v", i, ls.ID(i), ls.At(i), want[ls.ID(i)])
		}
	}
}

// TestMergeIterOrder drives the incremental merged iterator against the
// eager scan over the same snapshot: same block set, nondecreasing keys.
func TestMergeIterOrder(t *testing.T) {
	base, _ := buildBase(t, 300, 2)
	s := NewStore(base, 8)
	rng := rand.New(rand.NewSource(3))
	next := int32(300)
	for i := 0; i < 120; i++ {
		s.Insert(geom.Point{X: rng.Float64() * 120, Y: rng.Float64() * 120}, next)
		next++
	}
	for i := 0; i < 60; i++ {
		s.Remove(int32(rng.Intn(int(next))))
	}
	ix := s.Snapshot().(*Index)

	for _, q := range []geom.Point{{X: 50, Y: 50}, {X: -10, Y: 130}, {X: 0, Y: 0}} {
		for _, maxd := range []bool{false, true} {
			var it index.BlockIter
			var scan *index.Scan
			if maxd {
				it = ix.NewMaxDistIter(q)
				scan = index.NewMaxDistScan(ix.Blocks(), q)
			} else {
				it = ix.NewMinDistIter(q)
				scan = index.NewMinDistScan(ix.Blocks(), q)
			}
			seen := make(map[int]float64)
			last := -1.0
			for {
				b, k, ok := it.Next()
				if !ok {
					break
				}
				if k < last {
					t.Fatalf("maxd=%v: keys decreased: %v after %v", maxd, k, last)
				}
				last = k
				if _, dup := seen[b.ID]; dup {
					t.Fatalf("maxd=%v: block %d yielded twice", maxd, b.ID)
				}
				seen[b.ID] = k
			}
			for {
				b, k, ok := scan.Next()
				if !ok {
					break
				}
				got, present := seen[b.ID]
				if !present || got != k {
					t.Fatalf("maxd=%v: eager block %d key %v vs merged %v (present %v)", maxd, b.ID, k, got, present)
				}
				delete(seen, b.ID)
			}
			if len(seen) != 0 {
				t.Fatalf("maxd=%v: merged iterator yielded %d blocks the eager scan did not", maxd, len(seen))
			}
		}
	}

	// Reuse: Reset re-aims without dropping blocks.
	it := ix.NewMinDistIter(geom.Point{X: 10, Y: 10}).(index.ReusableIter)
	n1 := 0
	for _, _, ok := it.Next(); ok; _, _, ok = it.Next() {
		n1++
	}
	it.Reset(geom.Point{X: 90, Y: 90})
	n2 := 0
	for _, _, ok := it.Next(); ok; _, _, ok = it.Next() {
		n2++
	}
	if n1 != len(ix.Blocks()) || n2 != len(ix.Blocks()) {
		t.Fatalf("iterator yielded %d then %d blocks, want %d", n1, n2, len(ix.Blocks()))
	}
}

// TestLocateContainment checks that every live point of a snapshot — base,
// patched or delta — is stored in exactly one block whose bounds contain it.
func TestLocateContainment(t *testing.T) {
	base, _ := buildBase(t, 150, 4)
	s := NewStore(base, 8)
	rng := rand.New(rand.NewSource(5))
	next := int32(150)
	for i := 0; i < 80; i++ {
		// Half inside base coverage, half outside.
		scale := 100.0
		if i%2 == 0 {
			scale = 300.0
		}
		s.Insert(geom.Point{X: rng.Float64() * scale, Y: rng.Float64() * scale}, next)
		next++
	}
	for i := 0; i < 40; i++ {
		s.Remove(int32(rng.Intn(int(next))))
	}
	ix := s.Snapshot()
	seen := make(map[int32]int)
	for _, b := range ix.Blocks() {
		ids := b.PointIDs()
		for i, id := range ids {
			if p := b.PointAt(i); !b.Bounds.Contains(p) {
				t.Fatalf("point %d %v is stored in block %d, whose bounds %v do not contain it", id, p, b.ID, b.Bounds)
			}
			if _, dup := seen[id]; dup {
				t.Fatalf("point %d is stored in blocks %d and %d", id, seen[id], b.ID)
			}
			seen[id] = b.ID
		}
	}
	if len(seen) != ix.Len() {
		t.Fatalf("blocks store %d live points, want %d", len(seen), ix.Len())
	}
}
