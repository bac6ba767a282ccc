package core

import (
	"repro/internal/geom"
	"repro/internal/locality"
	"repro/internal/stats"
)

// This file implements Section 5 of the paper: a query with two kNN-select
// predicates over one relation,
//
//	σ_{k1,f1}(E) ∩ σ_{k2,f2}(E)
//
// — points that are simultaneously among the k1 nearest to focal point f1
// and the k2 nearest to focal point f2. Evaluating one select over the
// output of the other is wrong (Figures 14–15); the correct conceptual plan
// evaluates both independently and intersects (Figure 16). The 2-kNN-select
// algorithm (Procedure 5) exploits that the final answer is confined to the
// smaller neighborhood: the search of the larger-k predicate is clipped by a
// threshold derived from the smaller neighborhood, so its blocks never cover
// more space than the answer can occupy. Procedure 5 clips [15]'s two-phase
// locality, which still counts blocks toward k2 in MAXDIST order; here the
// clip is the threshold of the one best-first walk (see package locality),
// which visits only blocks within it, so the second predicate's cost
// depends on the threshold area and not on k2.

// TwoSelectsConceptual is the conceptually correct QEP of Figure 16: both
// neighborhoods are computed in full and intersected. It is the slow
// comparator of Figure 26; its cost grows with max(k1, k2) because the
// larger locality covers ever more blocks.
func TwoSelectsConceptual(rel Operand, f1 geom.Point, k1 int, f2 geom.Point, k2 int, c *stats.Counters) []geom.Point {
	p, _ := rel.Borrow(0, c)
	defer rel.Return(p)
	// Both predicates run on the same probe; the first result must be cloned
	// out of the reusable buffer before the second query overwrites it.
	nbr1 := p.Neighborhood(f1, k1, c).Clone()
	nbr2 := p.Neighborhood(f2, k2, c)
	return nbr1.Intersect(nbr2)
}

// SequentialTwoSelects evaluates the WRONG plans of Figures 14 and 15: the
// second select runs over the *output* of the first instead of over the full
// relation. firstIsF1 selects which predicate runs first. Implemented only
// for the semantics tests reproducing the paper's counter-example.
func SequentialTwoSelects(rel *Relation, f1 geom.Point, k1 int, f2 geom.Point, k2 int,
	firstIsF1 bool, c *stats.Counters) []geom.Point {

	if !firstIsF1 {
		f1, f2 = f2, f1
		k1, k2 = k2, k1
	}
	first := rel.S.Neighborhood(f1, k1, c)
	// Apply the second predicate to the k1 survivors only.
	second := kClosestTo(first.Points, f2, k2)
	return second
}

// kClosestTo returns the k points of pts closest to q under the canonical
// neighbor order.
func kClosestTo(pts []geom.Point, q geom.Point, k int) []geom.Point {
	if k <= 0 {
		return nil
	}
	out := make([]geom.Point, len(pts))
	copy(out, pts)
	// Small inputs: a partial selection sort by the canonical order, in
	// place on the one copy of pts.
	for i := 0; i < len(out) && i < k; i++ {
		best := i
		for j := i + 1; j < len(out); j++ {
			if out[j].CloserTo(q, out[best]) {
				best = j
			}
		}
		out[i], out[best] = out[best], out[i]
	}
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// TwoSelects is the 2-kNN-select algorithm (Procedure 5). The predicate with
// the smaller k runs first (swapping if necessary); its neighborhood bounds
// the answer, so the second predicate's walk admits a block only if the
// block's MINDIST from the second focal point is within the search threshold
// — the distance from the second focal point to the farthest point of the
// first neighborhood. The clipped walk stays small no matter how large the
// second k grows, which is why Figure 26 shows near-constant cost.
func TwoSelects(rel Operand, f1 geom.Point, k1 int, f2 geom.Point, k2 int, c *stats.Counters) []geom.Point {
	if k1 <= 0 || k2 <= 0 {
		return nil
	}
	// Evaluate the smaller-k predicate first (Procedure 5, lines 1–4).
	if k1 > k2 {
		f1, f2 = f2, f1
		k1, k2 = k2, k1
	}
	p, _ := rel.Borrow(0, c)
	defer rel.Return(p)
	nbr1 := p.Neighborhood(f1, k1, c).Clone() // survives the second query below
	if nbr1.Len() == 0 {
		return nil
	}
	// The threshold travels in squared form end-to-end: sqrt-then-square
	// rounding can land below the exact boundary distance and clip out an
	// exactly-at-threshold block of a tight-MBR index (fuzz-found).
	thresholdSq := nbr1.FarthestDistSqTo(f2)
	// Only blocks within the search threshold are visited — per shard, over
	// a group.
	nbr2 := p.NeighborhoodWithinSq(f2, k2, thresholdSq, c)
	return nbr1.Intersect(nbr2)
}

// TwoSelectsBatch evaluates σ_{k1,f1s[i]} ∩ σ_{k2,f2s[i]} for every focal
// pair of a batch, each answer the one TwoSelects — or, when conceptual,
// TwoSelectsConceptual — returns. Each predicate is one focal group on one
// probe (see KNNSelectBatch), held across both so that the batch reads one
// snapshot. As in TwoSelects, the smaller k runs first and each pair's
// second locality is clipped by the farthest point of its first answer; an
// empty first answer skips the pair's second search (negative threshold).
func TwoSelectsBatch(rel Operand, f1s []geom.Point, k1 int, f2s []geom.Point, k2 int, conceptual bool, c *stats.Counters) [][]geom.Point {
	if k1 <= 0 || k2 <= 0 || len(f1s) == 0 {
		return make([][]geom.Point, len(f1s))
	}
	if !conceptual && k1 > k2 {
		f1s, f2s = f2s, f1s
		k1, k2 = k2, k1
	}
	p, _ := rel.Borrow(0, c)
	defer rel.Return(p)
	rows := selectRows(p, f1s, k1, min(k1, rel.Len()), c)
	var thresholdsSq []float64
	if !conceptual {
		thresholdsSq = make([]float64, len(f1s))
		for i, f2 := range f2s {
			nbr1 := locality.Neighborhood{Points: rows[i]}
			thresholdsSq[i] = nbr1.FarthestDistSqTo(f2)
			if nbr1.Len() == 0 {
				thresholdsSq[i] = -1
			}
		}
	}
	// Each pair's answer takes the place of its first neighborhood.
	p.Neighborhoods(f2s, k2, thresholdsSq, c, func(i int, nbr2 *locality.Neighborhood) {
		nbr1 := locality.Neighborhood{Points: rows[i]}
		rows[i] = nbr1.Intersect(nbr2)
	})
	return rows
}
