package core

// White-box property tests (package core) driven by testing/quick: they
// check the pruning predicates themselves — not just end-to-end result
// equality — so a future change that weakens a bound fails here with a
// pointed message.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/index/grid"
)

// quickRelation builds a grid relation over n pseudo-random points derived
// from a quick-generated seed.
func quickRelation(seed int64, n int, bounds geom.Rect) *Relation {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: bounds.MinX + rng.Float64()*bounds.Width(),
			Y: bounds.MinY + rng.Float64()*bounds.Height(),
		}
	}
	ix, err := grid.New(pts, grid.Options{TargetPerCell: 8})
	if err != nil {
		panic(err) // bounded synthetic input; cannot fail
	}
	return NewRelation(ix)
}

// TestQuickMarkContributingSoundness: no point inside a block that the
// Block-Marking preprocessing prunes (marks Non-Contributing) may appear as
// the Left of any conceptual result pair.
func TestQuickMarkContributingSoundness(t *testing.T) {
	check := func(seed int64, kJoin, kSel uint8) bool {
		kj := int(kJoin%8) + 1
		ks := int(kSel%16) + 1
		bounds := geom.NewRect(0, 0, 500, 500)
		outer := quickRelation(seed, 150, bounds)
		inner := quickRelation(seed+1, 200, bounds)
		f := geom.Point{X: float64(seed%500+250) / 2, Y: 250}

		sel := KNNSelection(inner, f, ks, nil)
		if sel.Contains == nil {
			return true
		}
		contributing := markContributingBlocks(outer, inner, sel, kj, BlockMarkingOptions{}, nil)
		inContrib := make(map[geom.Point]bool)
		for _, u := range contributing {
			u.EachPoint(func(p geom.Point) { inContrib[p] = true })
		}

		want := SelectInnerJoinConceptual(outer, inner, f, kj, ks, nil)
		for _, pr := range want {
			if !inContrib[pr.Left] {
				t.Logf("seed=%d k⋈=%d kσ=%d: result point %v lives in a pruned block", seed, kj, ks, pr.Left)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickCountingSkipSoundness: whenever the Counting predicate decides
// to skip an outer point (k⋈ or more inner points strictly closer than the
// nearest point of f's neighborhood), that point must contribute nothing to
// the conceptual answer.
func TestQuickCountingSkipSoundness(t *testing.T) {
	check := func(seed int64, kJoin, kSel uint8) bool {
		kj := int(kJoin%8) + 1
		ks := int(kSel%16) + 1
		bounds := geom.NewRect(0, 0, 500, 500)
		outer := quickRelation(seed, 120, bounds)
		inner := quickRelation(seed+2, 160, bounds)
		f := geom.Point{X: 125, Y: float64(seed%500+250) / 2}

		// Clone: nbrF is retained across the conceptual plan's queries on
		// the same searcher (results are reusable buffers).
		nbrF := inner.S.Neighborhood(f, ks, nil).Clone()
		if nbrF.Len() == 0 {
			return true
		}
		want := SelectInnerJoinConceptual(outer, inner, f, kj, ks, nil)
		resultLeft := make(map[geom.Point]bool)
		for _, pr := range want {
			resultLeft[pr.Left] = true
		}

		// Re-derive the skip decision exactly as the Counting algorithm
		// does (strict comparisons; see selectjoin.go).
		ok := true
		outer.ForEachPoint(func(e1 geom.Point) {
			thr := nbrF.NearestDistTo(e1)
			thrSq := thr * thr
			count := 0
			it := index.MaxDistOrder(inner.Ix, e1)
			for count < kj {
				b, maxSq, itOK := it.Next()
				if !itOK || maxSq >= thrSq {
					break
				}
				count += b.Count()
			}
			if count >= kj && resultLeft[e1] {
				t.Logf("seed=%d: skipped point %v appears in the answer", seed, e1)
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickSortCanonical: SortPairs and SortTriples produce a total order
// that is idempotent and insensitive to input permutation.
func TestQuickSortCanonical(t *testing.T) {
	check := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		pairs := make([]Pair, int(n%50)+2)
		for i := range pairs {
			pairs[i] = Pair{
				Left:  geom.Point{X: float64(rng.Intn(5)), Y: float64(rng.Intn(5))},
				Right: geom.Point{X: float64(rng.Intn(5)), Y: float64(rng.Intn(5))},
			}
		}
		shuffled := make([]Pair, len(pairs))
		copy(shuffled, pairs)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		SortPairs(pairs)
		SortPairs(shuffled)
		for i := range pairs {
			if pairs[i] != shuffled[i] {
				return false
			}
		}
		// Idempotence.
		again := make([]Pair, len(pairs))
		copy(again, pairs)
		SortPairs(again)
		for i := range pairs {
			if pairs[i] != again[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickCoverageEstimateBounds: the cluster-coverage estimate stays in
// (0, 1] for any non-empty relation.
func TestQuickCoverageEstimateBounds(t *testing.T) {
	check := func(seed int64, n uint16) bool {
		size := int(n%800) + 1
		rel := quickRelation(seed, size, geom.NewRect(0, 0, 300, 300))
		cov := EstimateClusterCoverage(rel)
		return cov > 0 && cov <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
