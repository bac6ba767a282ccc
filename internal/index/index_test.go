package index_test

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/index/overlay"
	"repro/internal/testutil"
)

// TestIndexConformance runs the structural invariants every index
// implementation must satisfy.
func TestIndexConformance(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1000, 1000)
	for _, kind := range testutil.AllIndexKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			for _, n := range []int{1, 17, 500, 3000} {
				pts := testutil.UniformPoints(n, bounds, int64(n))
				ix := testutil.BuildIndex(t, kind, pts)

				if ix.Len() != n {
					t.Fatalf("Len = %d, want %d", ix.Len(), n)
				}
				if got := index.TotalCount(ix); got != n {
					t.Fatalf("blocks hold %d points in total, want %d", got, n)
				}

				blocks := ix.Blocks()
				for i, b := range blocks {
					if b.ID != i {
						t.Fatalf("block at position %d has ID %d", i, b.ID)
					}
					for p := range b.Points() {
						if !b.Bounds.Contains(p) {
							t.Fatalf("block %v does not contain its point %v", b, p)
						}
					}
					if !ix.Bounds().ContainsRect(b.Bounds) {
						t.Fatalf("block bounds %v exceed index bounds %v", b.Bounds, ix.Bounds())
					}
				}

				// Every indexed point is stored in exactly one block, and
				// that block's bounds contain it.
				storedIn := make(map[geom.Point][]*index.Block)
				for _, b := range blocks {
					for p := range b.Points() {
						if held := storedIn[p]; len(held) == 0 || held[len(held)-1] != b {
							storedIn[p] = append(held, b)
						}
					}
				}
				for _, p := range pts {
					held := storedIn[p]
					if len(held) != 1 {
						t.Fatalf("%v is stored in %d blocks, want 1", p, len(held))
					}
					if !held[0].Bounds.Contains(p) {
						t.Fatalf("%v is stored in %v, whose bounds do not contain it", p, held[0])
					}
				}

				// Points clearly outside the indexed region lie in no block.
				outside := geom.Point{X: bounds.MaxX + 1e6, Y: bounds.MaxY + 1e6}
				for _, b := range blocks {
					if b.Bounds.Contains(outside) {
						t.Fatalf("%v covers a point far outside the index bounds", b)
					}
				}
			}
		})
	}
}

// TestEachPointInExactlyOneBlock checks that blocks never share points.
func TestEachPointInExactlyOneBlock(t *testing.T) {
	bounds := geom.NewRect(-50, -50, 50, 50)
	pts := testutil.UniformPoints(2000, bounds, 7)
	for _, kind := range testutil.AllIndexKinds {
		ix := testutil.BuildIndex(t, kind, pts)
		seen := make(map[geom.Point]int)
		for _, b := range ix.Blocks() {
			for p := range b.Points() {
				seen[p]++
			}
		}
		for p, n := range seen {
			if n != 1 {
				t.Fatalf("%s: point %v stored %d times", kind, p, n)
			}
		}
		if len(seen) != len(pts) {
			t.Fatalf("%s: %d distinct stored points, want %d", kind, len(seen), len(pts))
		}
	}
}

func TestScanOrdering(t *testing.T) {
	bounds := geom.NewRect(0, 0, 100, 100)
	pts := testutil.UniformPoints(1500, bounds, 99)
	rng := rand.New(rand.NewSource(3))
	for _, kind := range testutil.AllIndexKinds {
		ix := testutil.BuildIndex(t, kind, pts)
		for trial := 0; trial < 5; trial++ {
			q := geom.Point{X: rng.Float64() * 120, Y: rng.Float64() * 120}

			minScan := index.NewMinDistScan(ix.Blocks(), q)
			prev := -1.0
			count := 0
			for {
				b, key, ok := minScan.Next()
				if !ok {
					break
				}
				if key < prev {
					t.Fatalf("%s: MINDIST scan not monotone: %v after %v", kind, key, prev)
				}
				if want := b.Bounds.MinDistSq(q); key != want {
					t.Fatalf("%s: scan key %v != MinDistSq %v", kind, key, want)
				}
				prev = key
				count++
			}
			if count != len(ix.Blocks()) {
				t.Fatalf("%s: MINDIST scan visited %d blocks, want %d", kind, count, len(ix.Blocks()))
			}

			maxScan := index.NewMaxDistScan(ix.Blocks(), q)
			prev = -1.0
			for {
				b, key, ok := maxScan.Next()
				if !ok {
					break
				}
				if key < prev {
					t.Fatalf("%s: MAXDIST scan not monotone: %v after %v", kind, key, prev)
				}
				if want := b.Bounds.MaxDistSq(q); key != want {
					t.Fatalf("%s: scan key %v != MaxDistSq %v", kind, key, want)
				}
				prev = key
			}
		}
	}
}

func TestScanRemaining(t *testing.T) {
	pts := testutil.UniformPoints(300, geom.NewRect(0, 0, 10, 10), 1)
	ix := testutil.BuildIndex(t, testutil.Grid, pts)
	s := index.NewMinDistScan(ix.Blocks(), geom.Point{X: 5, Y: 5})
	total := len(ix.Blocks())
	if s.Remaining() != total {
		t.Fatalf("Remaining = %d, want %d", s.Remaining(), total)
	}
	s.Next()
	if s.Remaining() != total-1 {
		t.Fatalf("Remaining after one pop = %d, want %d", s.Remaining(), total-1)
	}
}

func TestScanEmpty(t *testing.T) {
	s := index.NewMinDistScan(nil, geom.Point{})
	if _, _, ok := s.Next(); ok {
		t.Fatalf("Next on empty scan must report ok=false")
	}
}

// TestTilesSpaceDeclarations pins which indexes take the contour stop: both
// static families tile space, while an overlay snapshot with a pending write
// appends delta blocks that overlap the base blocks, so it must not.
func TestTilesSpaceDeclarations(t *testing.T) {
	pts := testutil.UniformPoints(200, geom.NewRect(0, 0, 10, 10), 5)
	for _, kind := range testutil.AllIndexKinds {
		ix := testutil.BuildIndex(t, kind, pts)
		if !index.TilesSpace(ix) {
			t.Errorf("TilesSpace(%s) = false, want true", kind)
		}
		st := overlay.NewStore(ix, 16)
		st.Insert(geom.Point{X: 5, Y: 5}, int32(len(pts)))
		if index.TilesSpace(st.Snapshot()) {
			t.Errorf("TilesSpace(%s overlay snapshot after one insert) = true, want false", kind)
		}
	}
}

func TestBlockAccessors(t *testing.T) {
	st := geom.StoreFromPoints([]geom.Point{{X: 9, Y: 9}, {X: 1, Y: 1}, {X: 2, Y: 2}})
	b := index.NewBlock(3, geom.NewRect(0, 0, 3, 4), st, 1, 2)
	if b.Count() != 2 {
		t.Errorf("Count = %d, want 2", b.Count())
	}
	if got, want := b.Center(), (geom.Point{X: 1.5, Y: 2}); got != want {
		t.Errorf("Center = %v, want %v", got, want)
	}
	if b.Diagonal() != 5 {
		t.Errorf("Diagonal = %v, want 5", b.Diagonal())
	}
	if b.String() == "" {
		t.Errorf("String must not be empty")
	}
	if got, want := b.PointAt(0), (geom.Point{X: 1, Y: 1}); got != want {
		t.Errorf("PointAt(0) = %v, want %v", got, want)
	}
	if off, n := b.Span(); off != 1 || n != 2 {
		t.Errorf("Span = (%d, %d), want (1, 2)", off, n)
	}
	xs, ys := b.XYs()
	if len(xs) != 2 || len(ys) != 2 || xs[1] != 2 || ys[1] != 2 {
		t.Errorf("XYs = %v, %v, want the [1,2] span columns", xs, ys)
	}
	if ids := b.PointIDs(); len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("PointIDs = %v, want [1 2]", ids)
	}
	got := b.AppendPoints(nil)
	want := []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("AppendPoints = %v, want %v", got, want)
	}
}

// TestIncrementalItersMatchEagerScans checks that every index kind's
// incremental MINDIST/MAXDIST iterators enumerate exactly the same blocks
// in exactly the same order as the eager heap over all blocks.
func TestIncrementalItersMatchEagerScans(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1000, 800)
	pts := testutil.UniformPoints(2500, bounds, 23)
	queries := []geom.Point{
		{X: 500, Y: 400}, {X: 0, Y: 0}, {X: -300, Y: 400}, {X: 2500, Y: 2500}, {X: 999, Y: 1},
	}
	for _, kind := range testutil.AllIndexKinds {
		ix := testutil.BuildIndex(t, kind, pts)
		if _, ok := ix.(index.IncrementalScanner); !ok {
			t.Fatalf("%s: expected an IncrementalScanner implementation", kind)
		}
		for _, q := range queries {
			for name, pair := range map[string][2]index.BlockIter{
				"mindist": {index.MinDistOrder(ix, q), index.NewMinDistScan(ix.Blocks(), q)},
				"maxdist": {index.MaxDistOrder(ix, q), index.NewMaxDistScan(ix.Blocks(), q)},
			} {
				inc, eager := pair[0], pair[1]
				for step := 0; ; step++ {
					bi, ki, oki := inc.Next()
					be, ke, oke := eager.Next()
					if oki != oke {
						t.Fatalf("%s/%s q=%v step %d: incremental ok=%v, eager ok=%v", kind, name, q, step, oki, oke)
					}
					if !oki {
						break
					}
					if ki != ke || bi.ID != be.ID {
						t.Fatalf("%s/%s q=%v step %d: incremental (%d, %v) != eager (%d, %v)",
							kind, name, q, step, bi.ID, ki, be.ID, ke)
					}
				}
			}
		}
	}
}
