package core

import (
	"runtime"

	"repro/internal/geom"
	"repro/internal/locality"
	"repro/internal/stats"
)

// KNNSelect evaluates σ_{k,f}(E): the k points of rel closest to the focal
// point f, in ascending (distance, X, Y) order. Fewer than k points are
// returned only when the relation holds fewer than k points.
func KNNSelect(rel Operand, f geom.Point, k int, c *stats.Counters) []geom.Point {
	p, _ := rel.Borrow(0, c)
	defer rel.Return(p)
	nbr := p.Neighborhood(f, k, c)
	out := make([]geom.Point, len(nbr.Points))
	copy(out, nbr.Points)
	return out
}

// KNNSelectBatch evaluates σ_{k,f}(E) for every focal of a batch: one answer
// per focal, in input order, each the one KNNSelect returns. A batch of
// selects is the kNN-join of the focal list against rel (§2), so it runs as
// that join's focal group: one probe — one snapshot — and one Neighborhoods
// call, which a probe over remote shards sends as one gather. The answers
// share one backing array.
func KNNSelectBatch(rel Operand, focals []geom.Point, k int, c *stats.Counters) [][]geom.Point {
	if k <= 0 || len(focals) == 0 {
		return make([][]geom.Point, len(focals))
	}
	p, _ := rel.Borrow(0, c)
	defer rel.Return(p)
	return selectRows(p, focals, k, min(k, rel.Len()), c)
}

// selectRows computes the k nearest neighbors of every focal on p. Answer i
// is copied into window i of one backing array, m = min(k, |E|) points wide:
// the size of every kNN answer, which only shards lost in partial-results
// mode make shorter.
func selectRows(p Probe, focals []geom.Point, k, m int, c *stats.Counters) [][]geom.Point {
	out := make([][]geom.Point, len(focals))
	pts := make([]geom.Point, len(focals)*m)
	p.Neighborhoods(focals, k, nil, c, func(i int, nbr *locality.Neighborhood) {
		lo := i * m
		hi := lo + copy(pts[lo:lo+m], nbr.Points)
		out[i] = pts[lo:hi:hi]
	})
	return out
}

// Join evaluates outer ⋈kNN inner: all pairs (e1, e2) with e1 from the
// outer relation and e2 among the k nearest neighbors of e1 in the inner
// relation, in outer scan order. This is the paper's basic join building
// block; every point of the outer relation incurs one neighborhood
// computation, fanned out over the outer relation's blocks across workers
// (≤ 1: sequential; each worker holds a probe on the inner relation, and
// the result does not depend on the count, order included). The result is
// non-nil for valid k and holds |outer|·min(k, |inner|) pairs — fewer only
// when shards are lost in partial-results mode — so a sequential run
// allocates it once, at that size.
func Join(outer, inner Operand, k, workers int, c *stats.Counters) []Pair {
	if k <= 0 {
		return nil
	}
	out := joinUnits(outer.Units(), inner, k, workers, outer.Len()*min(k, inner.Len()), c, nil, nil)
	if out == nil {
		out = []Pair{}
	}
	return out
}

// KNNJoin is the sequential Join.
func KNNJoin(outer, inner *Relation, k int, c *stats.Counters) []Pair {
	return Join(outer, inner, k, 1, c)
}

// KNNJoinParallel is Join with workers <= 0 selecting GOMAXPROCS.
func KNNJoinParallel(outer, inner *Relation, k, workers int, c *stats.Counters) []Pair {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return Join(outer, inner, k, workers, c)
}

// sortedPoints returns a canonically sorted copy of pts for binary-search
// membership tests (ContainsPoint). Neighborhoods are small (kσ points), so
// a sorted slice probes faster than a hash map, and the copy doubles as the
// retained snapshot of a reusable searcher result.
func sortedPoints(pts []geom.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	copy(out, pts)
	SortPoints(out)
	return out
}

// ContainsPoint reports whether p is in the canonically sorted (SortPoints
// order) set. It is the one membership test every intersection step — core
// and the sharded gather alike — goes through, so canonical-order changes
// cannot diverge between them.
func ContainsPoint(set []geom.Point, p geom.Point) bool {
	lo, hi := 0, len(set)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if set[mid].Less(p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(set) && set[lo] == p
}
