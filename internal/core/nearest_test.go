package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/kernel"
)

// TestNearestGridExact holds nearestGrid.minDistSq to kernel.MinDistSq over
// the flat columns of the same points, bit for bit, on the sets where a
// grid is easiest to get wrong: one point, zero extent, collinear points,
// points on cell edges, empty cells, queries far outside the extent,
// coordinates near ±2^500 and seeded random sets. A cell skipped or a walk
// stopped on an unsound bound shows as a larger answer, and the stopping
// bound itself is checked against every point it claims to bound.
func TestNearestGridExact(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	uniform := func(n int, lo, hi float64) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: lo + rng.Float64()*(hi-lo), Y: lo + rng.Float64()*(hi-lo)}
		}
		return pts
	}
	line := func(n int, p0, step geom.Point) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: p0.X + float64(i)*step.X, Y: p0.Y + float64(i)*step.Y}
		}
		return pts
	}
	lattice := func(n int, step float64) []geom.Point {
		var pts []geom.Point
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				pts = append(pts, geom.Point{X: float64(i) * step, Y: float64(j) * step})
			}
		}
		return pts
	}
	corners := append(uniform(300, 0, 10), uniform(300, 990, 1000)...)
	huge := math.Ldexp(1, 500)
	nearHuge := make([]geom.Point, 400)
	for i := range nearHuge {
		nearHuge[i] = geom.Point{X: huge - float64(i)*math.Ldexp(1, 450), Y: -huge + rng.Float64()*math.Ldexp(1, 460)}
	}

	// Points a few ulps either side of every column and row edge the grid
	// computes, on the two centre lines, with queries on the same lines:
	// there the x or the y gap alone is the distance. The point count is
	// chosen so that some point just below an edge is cut into the cell
	// above it and some point just above one into the cell below, where a
	// bound taken from the edge arithmetic instead of the points is too
	// large; the set keeps the count and extent of the grid whose edges it
	// hugs.
	idsOf := func(pts []geom.Point) map[geom.Point]int32 {
		ids := make(map[geom.Point]int32)
		for _, p := range pts {
			if _, ok := ids[p]; !ok {
				ids[p] = int32(len(ids))
			}
		}
		return ids
	}
	edgeHugging := func(o, w float64) (pts, queries []geom.Point) {
		m := o + w/2
		for n := 64; n <= 4096; n += 16 {
			base := append([]geom.Point{{X: o, Y: o}, {X: o + w, Y: o + w}}, uniform(n-2, o, o+w)...)
			g := newNearestGrid(idsOf(base))
			pts, qs, up, down := base[:2:2], []geom.Point(nil), false, false
			for c := 1; c < g.x.n; c++ {
				e := g.x.v0 + float64(c)/g.x.inv
				v := math.Nextafter(math.Nextafter(math.Nextafter(e, o), o), o)
				for k := 0; k < 7; k, v = k+1, math.Nextafter(v, o+w) {
					up = up || v < e && g.x.cell(v) >= c
					down = down || v > e && g.x.cell(v) < c
					pts = append(pts, geom.Point{X: v, Y: m}, geom.Point{X: m, Y: v})
					for _, d := range []float64{w / 997, w / 7} {
						qs = append(qs, geom.Point{X: v - d, Y: m}, geom.Point{X: v + d, Y: m},
							geom.Point{X: m, Y: v - d}, geom.Point{X: m, Y: v + d})
					}
				}
			}
			if up && down && len(pts) < n {
				return append(pts, base[len(pts):]...), qs
			}
		}
		t.Fatalf("no point count up to 4096 cuts points across both kinds of edge of a grid over [%v, %v]: the case tests nothing", o, o+w)
		return nil, nil
	}

	sets := []nearestSet{
		{name: "one", pts: []geom.Point{{X: 3, Y: 4}}},
		{name: "co-located", pts: line(50, geom.Point{X: 7, Y: -7}, geom.Point{})},
		{name: "horizontal", pts: line(200, geom.Point{X: 0, Y: 5}, geom.Point{X: 1.5})},
		{name: "vertical", pts: line(200, geom.Point{X: 5, Y: 0}, geom.Point{Y: 0.25})},
		{name: "diagonal", pts: line(200, geom.Point{X: -100, Y: -100}, geom.Point{X: 1, Y: 1})},
		{name: "cell-edges", pts: lattice(21, 10)},
		{name: "empty-cells", pts: corners},
		{name: "span-2^500", pts: uniform(500, -huge, huge)},
		{name: "near-±2^500", pts: nearHuge},
		{name: "uniform-3000", pts: uniform(3000, 0, 1000)},
		{name: "tiny", pts: uniform(7, 0, 1)},
	}
	for _, ext := range [][2]float64{{-0.7, 0.9}, {0.1, 1.1}, {-0.7, 2.9}} {
		pts, qs := edgeHugging(ext[0], ext[1])
		sets = append(sets, nearestSet{fmt.Sprintf("edges-%v", ext), pts, qs})
	}
	for _, set := range sets {
		ids := idsOf(set.pts)
		bs := make([]geom.Point, len(ids))
		for p, id := range ids {
			bs[id] = p
		}
		xs, ys := geom.FlatXYs(bs)
		g := newNearestGrid(ids)

		ext := geom.RectFromPoints(bs)
		w, h := ext.MaxX-ext.MinX, ext.MaxY-ext.MinY
		span := max(w, h, 1)
		queries := append(set.edges, bs...)
		for i := 0; i < 400; i++ {
			queries = append(queries, geom.Point{X: ext.MinX - w/4 + rng.Float64()*w*1.5, Y: ext.MinY - h/4 + rng.Float64()*h*1.5})
		}
		// Cell edges as the grid computes them, and points just beside.
		for i := 0; i <= g.x.n; i++ {
			for j := 0; j <= g.y.n; j += max(1, g.y.n/7) {
				e := geom.Point{X: g.x.v0 + float64(i)/g.x.inv, Y: g.y.v0 + float64(j)/g.y.inv}
				if !(e.X > -math.MaxFloat64 && e.X < math.MaxFloat64) {
					e.X = ext.MinX
				}
				if !(e.Y > -math.MaxFloat64 && e.Y < math.MaxFloat64) {
					e.Y = ext.MinY
				}
				queries = append(queries, e, geom.Point{X: math.Nextafter(e.X, math.Inf(1)), Y: math.Nextafter(e.Y, math.Inf(-1))})
			}
		}
		// Far outside, on every side and corner.
		for _, d := range []geom.Point{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}, {X: 1, Y: 1}, {X: -1, Y: 1}, {X: 3, Y: -0.5}} {
			c := ext.Center()
			queries = append(queries, geom.Point{X: c.X + d.X*span*1e3, Y: c.Y + d.Y*span*1e3})
		}
		for n, q := range queries {
			got, want := g.minDistSq(q), kernel.MinDistSq(xs, ys, q.X, q.Y)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s (%d points, %d×%d cells): minDistSq(%v) = %v, the flat kernel %v", set.name, len(bs), g.x.n, g.y.n, q, got, want)
			}
			if n >= len(set.edges) && n%7 != 0 {
				continue
			}
			// The walk's stopping bound, ring by ring, against every point
			// it would leave unscanned: a bound above one of them is
			// unsound even where no query happens to show it.
			ci, cj := g.x.cell(q.X), g.y.cell(q.Y)
			for r := -1; r <= max(g.x.n, g.y.n); r++ {
				bound := g.beyond(q, ci, cj, r)
				for k := range bs {
					pi, pj := g.x.cell(bs[k].X), g.y.cell(bs[k].Y)
					if d := kernel.MinDistSq(xs[k:k+1], ys[k:k+1], q.X, q.Y); max(abs(pi-ci), abs(pj-cj)) > r && bound > d {
						t.Fatalf("%s: beyond(%v, ring %d) = %v, above the distance %v of %v in cell (%d, %d)", set.name, q, r, bound, d, bs[k], pi, pj)
					}
				}
			}
		}
	}
}

func abs(v int) int { return max(v, -v) }

// nearestSet is one point set of TestNearestGridExact; its edges are
// queries checked against every stopping bound.
type nearestSet struct {
	name       string
	pts, edges []geom.Point
}
