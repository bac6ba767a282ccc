package twoknn

import (
	"math/rand"
	"testing"

	"repro/internal/locality"
	"repro/internal/testutil"
)

// TestPostMergeReadPathAllocs pins the RCU merge payoff: after Compact the
// snapshot is a native block-contiguous index again, and the hot read path
// (Neighborhood over a pooled searcher) is allocation-free in steady state —
// exactly like a never-mutated relation. The overlay read path is held to
// the same standard: its merged block iterator is pooled per searcher.
func TestPostMergeReadPathAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	pts := make([]Point, 3000)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	queries := make([]Point, 64)
	for i := range queries {
		queries[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}

	for _, kind := range []IndexKind{GridIndex, QuadtreeIndex} {
		t.Run(kind.String(), func(t *testing.T) {
			rel, err := NewRelation("alloc", pts, WithIndexKind(kind),
				WithBlockCapacity(64), WithCompactThreshold(-1))
			if err != nil {
				t.Fatal(err)
			}
			// Mutate: inserts and removals leave a resident overlay.
			ins := make([]Point, 400)
			for i := range ins {
				ins[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			}
			rel.Insert(ins...)
			for i := 0; i < 200; i++ {
				rel.Remove(int32(rng.Intn(3000)))
			}

			measure := func() float64 {
				s := locality.NewSearcher(rel.snapshot().rel.Ix)
				for _, q := range queries {
					s.Neighborhood(q, 16, nil)
				}
				i := 0
				avg := testutil.AllocsPerRun(t, 200, func() {
					s.Neighborhood(queries[i%len(queries)], 16, nil)
					i++
				})
				return avg
			}

			if avg := measure(); avg != 0 {
				t.Errorf("%v: overlay read path allocates %v per Neighborhood, want 0", kind, avg)
			}
			if err := rel.Compact(); err != nil {
				t.Fatal(err)
			}
			if rel.snapshot().rel.Store() == nil {
				t.Fatalf("%v: post-compact snapshot is not a native store-backed index", kind)
			}
			if avg := measure(); avg != 0 {
				t.Errorf("%v: post-merge read path allocates %v per Neighborhood, want 0", kind, avg)
			}
		})
	}
}
