package grid

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
)

func uniformPoints(n int, bounds geom.Rect, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: bounds.MinX + rng.Float64()*bounds.Width(),
			Y: bounds.MinY + rng.Float64()*bounds.Height(),
		}
	}
	return pts
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Errorf("empty points without bounds must error")
	}
	g, err := New(nil, Options{Bounds: geom.NewRect(0, 0, 1, 1), Cols: 2, Rows: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cols, rows := g.Dims(); cols != 2 || rows != 3 {
		t.Errorf("Dims = %d x %d, want 2 x 3", cols, rows)
	}
	if len(g.Blocks()) != 6 {
		t.Errorf("blocks = %d, want 6", len(g.Blocks()))
	}

	if _, err := New([]geom.Point{{X: 5, Y: 5}}, Options{Bounds: geom.NewRect(0, 0, 1, 1)}); err == nil {
		t.Errorf("point outside explicit bounds must error")
	}
}

func TestSinglePointGrid(t *testing.T) {
	g, err := New([]geom.Point{{X: 3, Y: 4}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 || index.TotalCount(g) != 1 {
		t.Fatalf("single-point grid misplaced the point")
	}
	if b := g.Blocks()[0]; len(g.Blocks()) != 1 || b.Count() != 1 || b.PointAt(0) != (geom.Point{X: 3, Y: 4}) || !b.Bounds.Contains(b.PointAt(0)) {
		t.Fatalf("the one block does not store the point inside its bounds: %v", g.Blocks())
	}
}

// TestRingIterMatchesEagerScan is the central property of the incremental
// orderings: they must enumerate exactly the same blocks in exactly the
// same order as the eager heap over all blocks, for query points inside,
// near, and far outside the grid.
func TestRingIterMatchesEagerScan(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1000, 800)
	pts := uniformPoints(3000, bounds, 17)
	g, err := New(pts, Options{TargetPerCell: 16})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(18))
	queries := []geom.Point{
		{X: 500, Y: 400},   // center
		{X: 0, Y: 0},       // corner
		{X: -250, Y: 400},  // outside left
		{X: 2000, Y: 2000}, // far outside
	}
	for i := 0; i < 12; i++ {
		queries = append(queries, geom.Point{X: rng.Float64()*1600 - 300, Y: rng.Float64()*1400 - 300})
	}

	for _, q := range queries {
		for name, pair := range map[string][2]index.BlockIter{
			"mindist": {g.NewMinDistIter(q), index.NewMinDistScan(g.Blocks(), q)},
			"maxdist": {g.NewMaxDistIter(q), index.NewMaxDistScan(g.Blocks(), q)},
		} {
			inc, eager := pair[0], pair[1]
			for step := 0; ; step++ {
				bi, ki, oki := inc.Next()
				be, ke, oke := eager.Next()
				if oki != oke {
					t.Fatalf("%s q=%v step %d: incremental ok=%v, eager ok=%v", name, q, step, oki, oke)
				}
				if !oki {
					break
				}
				if ki != ke {
					t.Fatalf("%s q=%v step %d: key %v != %v", name, q, step, ki, ke)
				}
				// Keys tie across blocks; require identical keys and, on
				// ties, identical block sets is implied by identical order
				// because both tie-break by block ID.
				if bi.ID != be.ID {
					t.Fatalf("%s q=%v step %d: block %d != %d (key %v)", name, q, step, bi.ID, be.ID, ki)
				}
			}
		}
	}
}

// TestRingIterLazy ensures the iterator does not touch all blocks when the
// consumer stops early — the property that makes per-query cost
// proportional to locality size.
func TestRingIterLazy(t *testing.T) {
	pts := uniformPoints(100000, geom.NewRect(0, 0, 1000, 1000), 19)
	g, err := New(pts, Options{TargetPerCell: 16}) // ~6000 cells
	if err != nil {
		t.Fatal(err)
	}
	it := g.NewMinDistIter(geom.Point{X: 500, Y: 500}).(*ringIter)
	for i := 0; i < 10; i++ {
		if _, _, ok := it.Next(); !ok {
			t.Fatalf("iterator exhausted after %d blocks", i)
		}
	}
	cols, rows := g.Dims()
	if touched := len(it.h); touched > cols*rows/4 {
		t.Errorf("iterator touched %d of %d blocks for 10 pops; not lazy", touched, cols*rows)
	}
}

func TestRingIterDegenerateGrids(t *testing.T) {
	// 1xN and Nx1 grids exercise ring clipping.
	for _, dims := range [][2]int{{1, 8}, {8, 1}, {1, 1}} {
		g, err := New(uniformPoints(50, geom.NewRect(0, 0, 100, 100), 20),
			Options{Cols: dims[0], Rows: dims[1]})
		if err != nil {
			t.Fatal(err)
		}
		q := geom.Point{X: 37, Y: 61}
		seen := 0
		it := g.NewMinDistIter(q)
		prev := -1.0
		for {
			_, key, ok := it.Next()
			if !ok {
				break
			}
			if key < prev {
				t.Fatalf("grid %v: keys not monotone", dims)
			}
			prev = key
			seen++
		}
		if seen != dims[0]*dims[1] {
			t.Fatalf("grid %v: enumerated %d blocks, want %d", dims, seen, dims[0]*dims[1])
		}
	}
}

// TestNaNPointsRejected pins the NaN guard in cell arithmetic: a NaN
// coordinate must fail construction with the outside-bounds error (as the
// pre-columnar Contains-based path did) and must not be locatable.
func TestNaNPointsRejected(t *testing.T) {
	bounds := geom.NewRect(0, 0, 10, 10)
	nan := math.NaN()
	for _, p := range []geom.Point{{X: nan, Y: 5}, {X: 5, Y: nan}, {X: nan, Y: nan}} {
		if _, err := New([]geom.Point{p}, Options{Bounds: bounds, Cols: 1, Rows: 1}); err == nil {
			t.Errorf("New with NaN point %v built a grid, want outside-bounds error", p)
		}
	}
	g, err := New([]geom.Point{{X: 5, Y: 5}}, Options{Bounds: bounds, Cols: 3, Rows: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range g.Blocks() {
		if b.Bounds.Contains(geom.Point{X: nan, Y: nan}) {
			t.Errorf("%v contains (NaN, NaN)", b)
		}
	}
}
