package locality_test

// Allocation-regression tests for the kNN hot path: one Searcher.Neighborhood
// call must be allocation-free in steady state on every index family. The
// first queries on a fresh Searcher may grow its scratch buffers (iterator
// heaps, the selection heap, the result arrays); after a warm-up, nothing on
// the query path may touch the garbage collector.

import (
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/locality"
	"repro/internal/testutil"
)

func searcherForKind(t *testing.T, kind testutil.IndexKind) (*locality.Searcher, []geom.Point) {
	t.Helper()
	bounds := geom.NewRect(0, 0, 1000, 1000)
	pts := testutil.UniformPoints(4000, bounds, 41)
	queries := testutil.UniformPoints(128, bounds, 42)
	return locality.NewSearcher(testutil.BuildIndex(t, kind, pts)), queries
}

// selectionKs are the neighborhood sizes the steady-state tests run: the
// paper's small-k regime, and a k large enough that the extraction sort
// handles hundreds of candidates.
var selectionKs = []int{16, 640}

func TestNeighborhoodZeroAllocsSteadyState(t *testing.T) {
	for _, kind := range testutil.AllIndexKinds {
		t.Run(string(kind), func(t *testing.T) {
			s, queries := searcherForKind(t, kind)
			for _, k := range selectionKs {
				t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
					// Warm up: let every scratch buffer reach steady-state capacity.
					for _, q := range queries {
						s.Neighborhood(q, k, nil)
					}
					i := 0
					avg := testutil.AllocsPerRun(t, 200, func() {
						s.Neighborhood(queries[i%len(queries)], k, nil)
						i++
					})
					if avg != 0 {
						t.Errorf("%s k=%d: Neighborhood allocates %v per call in steady state, want 0", kind, k, avg)
					}
				})
			}
		})
	}
}

func TestNeighborhoodWithinZeroAllocsSteadyState(t *testing.T) {
	for _, kind := range testutil.AllIndexKinds {
		t.Run(string(kind), func(t *testing.T) {
			s, queries := searcherForKind(t, kind)
			for _, k := range selectionKs {
				t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
					for _, q := range queries {
						s.NeighborhoodWithinSq(q, k, 150*150, nil)
					}
					i := 0
					avg := testutil.AllocsPerRun(t, 200, func() {
						q := queries[i%len(queries)]
						s.NeighborhoodWithinSq(q, k, 150*150, nil)
						i++
					})
					if avg != 0 {
						t.Errorf("%s k=%d: within-threshold neighborhoods allocate %v per call in steady state, want 0", kind, k, avg)
					}
				})
			}
		})
	}
}

// TestSpanScanZeroAllocs covers the span primitives underneath the
// searcher's hot loop: obtaining a block's flat X/Y columns and scanning
// them (the radius-filter kernel) must not allocate on any index family —
// the columnar refactor's whole point is that the inner loop touches only
// pre-laid-out arrays.
func TestSpanScanZeroAllocs(t *testing.T) {
	for _, kind := range testutil.AllIndexKinds {
		t.Run(string(kind), func(t *testing.T) {
			bounds := geom.NewRect(0, 0, 1000, 1000)
			pts := testutil.UniformPoints(4000, bounds, 41)
			ix := testutil.BuildIndex(t, kind, pts)
			blocks := ix.Blocks()
			q := geom.Point{X: 500, Y: 500}
			sink := 0
			avg := testutil.AllocsPerRun(t, 100, func() {
				for _, b := range blocks {
					xs, ys := b.XYs()
					for i := range xs {
						dx, dy := xs[i]-q.X, ys[i]-q.Y
						if dx*dx+dy*dy <= 100*100 {
							sink++
						}
					}
					sink += b.CountWithinSq(q, 50*50)
				}
			})
			if avg != 0 {
				t.Errorf("%s: span scan allocates %v per full pass, want 0", kind, avg)
			}
			_ = sink
		})
	}
}

// TestNeighborhoodBatchedScanZeroAllocs is the steady-state allocation
// regression for the batched kernel scan paths: with blocks larger than
// kernel.BatchGrain the searcher routes spans through DistSqInto /
// SelectWithinSq and per-Searcher scratch buffers (dists, selIdx) — after
// warm-up those must be as allocation-free as the fused scalar path.
func TestNeighborhoodBatchedScanZeroAllocs(t *testing.T) {
	const k = 16
	bounds := geom.NewRect(0, 0, 1000, 1000)
	pts := testutil.UniformPoints(8000, bounds, 43)
	queries := testutil.UniformPoints(128, bounds, 44)
	for _, kind := range testutil.AllIndexKinds {
		t.Run(string(kind), func(t *testing.T) {
			ix, err := testutil.NewIndexCapacity(kind, pts, 128)
			if err != nil {
				t.Fatal(err)
			}
			s := locality.NewSearcher(ix)
			for _, q := range queries {
				s.Neighborhood(q, k, nil)
				s.NeighborhoodWithinSq(q, k, 150*150, nil)
			}
			i := 0
			avg := testutil.AllocsPerRun(t, 200, func() {
				q := queries[i%len(queries)]
				s.Neighborhood(q, k, nil)
				s.NeighborhoodWithinSq(q, k, 150*150, nil)
				i++
			})
			if avg != 0 {
				t.Errorf("%s: batched-span neighborhoods allocate %v per call in steady state, want 0", kind, avg)
			}
		})
	}
}

func TestCountStrictlyCloserZeroAllocs(t *testing.T) {
	for _, kind := range testutil.AllIndexKinds {
		t.Run(string(kind), func(t *testing.T) {
			s, queries := searcherForKind(t, kind)
			for _, q := range queries {
				s.CountStrictlyCloser(q, 10, 100*100, nil)
			}
			i := 0
			avg := testutil.AllocsPerRun(t, 200, func() {
				s.CountStrictlyCloser(queries[i%len(queries)], 10, 100*100, nil)
				i++
			})
			if avg != 0 {
				t.Errorf("%s: CountStrictlyCloser allocates %v per call, want 0", kind, avg)
			}
		})
	}
}
