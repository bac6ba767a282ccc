// Package testutil provides seeded data builders shared by the test suites
// of the index, locality and core packages. It is imported by tests only.
package testutil

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/index/grid"
	"repro/internal/index/quadtree"
)

// UniformPoints returns n points uniformly distributed over bounds, from a
// deterministic source seeded with seed.
func UniformPoints(n int, bounds geom.Rect, seed int64) []geom.Point {
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

// ClusteredPoints returns points grouped into nClusters Gaussian blobs with
// the given standard deviation, cluster centers uniform over bounds.
func ClusteredPoints(n, nClusters int, sigma float64, bounds geom.Rect, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]geom.Point, nClusters)
	for i := range centers {
		centers[i] = geom.Point{
			X: bounds.MinX + rng.Float64()*bounds.Width(),
			Y: bounds.MinY + rng.Float64()*bounds.Height(),
		}
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[rng.Intn(nClusters)]
		pts[i] = geom.Point{
			X: clamp(c.X+rng.NormFloat64()*sigma, bounds.MinX, bounds.MaxX),
			Y: clamp(c.Y+rng.NormFloat64()*sigma, bounds.MinY, bounds.MaxY),
		}
	}
	return pts
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// IndexKind names one of the two index implementations.
type IndexKind string

// The available index kinds.
const (
	Grid     IndexKind = "grid"
	Quadtree IndexKind = "quadtree"
)

// AllIndexKinds lists every index implementation; tests range over it to
// check index-agnosticism.
var AllIndexKinds = []IndexKind{Grid, Quadtree}

// BuildIndex constructs an index of the given kind over pts with a small
// block capacity (so even small test inputs span many blocks).
func BuildIndex(t testing.TB, kind IndexKind, pts []geom.Point) index.Index {
	t.Helper()
	ix, err := NewIndex(kind, pts)
	if err != nil {
		t.Fatalf("building %s index over %d points: %v", kind, len(pts), err)
	}
	return ix
}

// NewIndex is BuildIndex without the testing.TB dependency, for use in
// builder callbacks passed to core functions.
func NewIndex(kind IndexKind, pts []geom.Point) (index.Index, error) {
	return NewIndexCapacity(kind, pts, 16)
}

// NewIndexCapacity is NewIndex with an explicit leaf/cell capacity — tests
// exercising the batched kernel scan paths need blocks larger than
// kernel.BatchGrain, while the default small capacity keeps small inputs
// spanning many blocks.
func NewIndexCapacity(kind IndexKind, pts []geom.Point, capacity int) (index.Index, error) {
	if len(pts) == 0 {
		// Degenerate relations (e.g. the reduced inner relation of an
		// invalid-pushdown plan over an empty selection) still need a
		// well-defined region.
		return grid.New(nil, grid.Options{Bounds: geom.NewRect(0, 0, 1, 1), Cols: 1, Rows: 1})
	}
	if kind == Quadtree {
		return quadtree.New(pts, quadtree.Options{LeafCapacity: capacity})
	}
	return grid.New(pts, grid.Options{TargetPerCell: capacity})
}

// BuildRelation wraps BuildIndex into a core.Relation.
func BuildRelation(t testing.TB, kind IndexKind, pts []geom.Point) *core.Relation {
	t.Helper()
	return core.NewRelation(BuildIndex(t, kind, pts))
}

// RelationBuilder returns a constructor closure over the index kind, in the
// shape the Invalid* / Sequential* plan functions expect.
func RelationBuilder(kind IndexKind) func(pts []geom.Point) (*core.Relation, error) {
	return func(pts []geom.Point) (*core.Relation, error) {
		ix, err := NewIndex(kind, pts)
		if err != nil {
			return nil, err
		}
		return core.NewRelation(ix), nil
	}
}

// AllocsPerRun is testing.AllocsPerRun with the garbage collector paused
// for the measurement (and the old GC percent restored afterwards), so the
// average counts the allocations f itself makes — not the ones a
// collection in the middle of the runs makes the program repeat.
func AllocsPerRun(t testing.TB, runs int, f func()) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}
