package quadtree

import (
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
	if _, err := New([]geom.Point{{X: 9, Y: 9}}, Options{Bounds: geom.NewRect(0, 0, 1, 1)}); err == nil {
		t.Errorf("point outside explicit bounds must error")
	}
	tr, err := New(nil, Options{Bounds: geom.NewRect(0, 0, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || len(tr.Blocks()) != 1 {
		t.Errorf("empty tree with bounds must be a single empty leaf")
	}
}

func TestLeafCapacityRespected(t *testing.T) {
	pts := uniformPoints(2000, geom.NewRect(0, 0, 100, 100), 6)
	tr, err := New(pts, Options{LeafCapacity: 25})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range tr.Blocks() {
		if b.Count() > 25 {
			t.Fatalf("leaf holds %d points, capacity 25", b.Count())
		}
	}
	if got := index.TotalCount(tr); got != 2000 {
		t.Fatalf("blocks hold %d points, want 2000", got)
	}
	if tr.Depth() < 2 {
		t.Fatalf("2000 points at capacity 25 must split at least once")
	}
}

func TestMaxDepthStopsDuplicates(t *testing.T) {
	pts := make([]geom.Point, 300)
	for i := range pts {
		pts[i] = geom.Point{X: 1, Y: 1}
	}
	tr, err := New(pts, Options{LeafCapacity: 4, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Depth() > 6 {
		t.Fatalf("depth %d exceeds MaxDepth 6", tr.Depth())
	}
	if got := index.TotalCount(tr); got != 300 {
		t.Fatalf("blocks hold %d points, want 300", got)
	}
}

func TestQuadrantAssignmentConsistency(t *testing.T) {
	// Points exactly on split lines go to the higher-coordinate quadrant:
	// each is stored in exactly one leaf, and that leaf's bounds contain it.
	pts := []geom.Point{
		{X: 50, Y: 50}, {X: 50, Y: 10}, {X: 10, Y: 50},
		{X: 0, Y: 0}, {X: 100, Y: 100}, {X: 50, Y: 100},
	}
	// Force splits by tiny capacity with fixed bounds.
	tr, err := New(pts, Options{LeafCapacity: 1, Bounds: geom.NewRect(0, 0, 100, 100)})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		var held []*index.Block
		for _, b := range tr.Blocks() {
			for q := range b.Points() {
				if q == p {
					held = append(held, b)
				}
			}
		}
		if len(held) != 1 {
			t.Fatalf("%v is stored in %d leaves, want 1", p, len(held))
		}
		r, all := held[0].Bounds, tr.Bounds()
		if !r.Contains(p) {
			t.Fatalf("%v is stored in %v, whose bounds do not contain it", p, held[0])
		}
		// On a split line, the leaf above or to the right holds the point.
		if (p.X == r.MaxX && r.MaxX != all.MaxX) || (p.Y == r.MaxY && r.MaxY != all.MaxY) {
			t.Fatalf("%v on a split line is stored in the lower-coordinate leaf %v", p, held[0])
		}
	}
}

func TestLeavesTileBounds(t *testing.T) {
	pts := uniformPoints(800, geom.NewRect(0, 0, 64, 64), 7)
	tr, err := New(pts, Options{LeafCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.TilesSpace() {
		t.Fatalf("quadtree must declare TilesSpace")
	}
	total := 0.0
	for _, b := range tr.Blocks() {
		total += b.Bounds.Area()
	}
	if want := tr.Bounds().Area(); total < want*0.999 || total > want*1.001 {
		t.Fatalf("leaf areas sum to %v, bounds area %v; leaves must tile", total, want)
	}
}
