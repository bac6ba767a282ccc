package core

import (
	"repro/internal/geom"
	"repro/internal/locality"
	"repro/internal/stats"
)

// This file implements Section 4.2 of the paper: two *chained* kNN-joins
// A → B → C,
//
//	(A ⋈kNN B) ∩_B (B ⋈kNN C)
//
// — triplets (a, b, c) where b is among the kA-B nearest neighbors of a and
// c is among the kB-C nearest neighbors of b. Unlike the unchained case, the
// first join acts as a selection on the *outer* relation of the second join,
// which is a valid pushdown, so the three QEPs of Figure 13 are equivalent:
//
//	QEP1 (right-deep):        A ⋈kNN (B ⋈kNN C), materializing B ⋈ C first;
//	QEP2 (join-intersection): both joins in full, intersected on B;
//	QEP3 (nested join):       (A ⋈kNN B) ⋈kNN C, computing c-neighborhoods
//	                          only for b values the first join produced.
//
// QEP3 avoids the redundant work of QEP1/QEP2 on b values no a selects, but
// recomputes the neighborhood of a b selected by several a's; the paper
// fixes that with a hash-table cache keyed by b (Section 4.2, Figure 24).

// ChainedQEP identifies one of the chained-join evaluation plans.
type ChainedQEP int

const (
	// ChainedAuto uses the nested join with caching, the paper's winner.
	ChainedAuto ChainedQEP = iota

	// ChainedRightDeep is QEP1.
	ChainedRightDeep

	// ChainedJoinIntersection is QEP2.
	ChainedJoinIntersection

	// ChainedNestedJoin is QEP3 without the neighborhood cache.
	ChainedNestedJoin

	// ChainedNestedJoinCached is QEP3 with the neighborhood cache.
	ChainedNestedJoinCached
)

// String implements fmt.Stringer.
func (q ChainedQEP) String() string {
	switch q {
	case ChainedRightDeep:
		return "right-deep"
	case ChainedJoinIntersection:
		return "join-intersection"
	case ChainedNestedJoin:
		return "nested-join"
	case ChainedNestedJoinCached:
		return "nested-join-cached"
	default:
		return "auto"
	}
}

// Chained evaluates the chained query with the chosen QEP, tuple batches
// fanned out across workers (≤ 1: sequential). All QEPs produce the same
// triples in the same order (a property the tests enforce), whatever the
// worker count.
func Chained(a, b, cRel Operand, kAB, kBC int, qep ChainedQEP, workers int, c *stats.Counters) []Triple {
	if kAB <= 0 || kBC <= 0 {
		return nil
	}
	switch qep {
	case ChainedRightDeep:
		return chainedRightDeep(a, b, cRel, kAB, kBC, workers, c)
	case ChainedJoinIntersection:
		return chainedJoinIntersection(a, b, cRel, kAB, kBC, workers, c)
	case ChainedNestedJoin:
		return chainedNestedJoin(a, b, cRel, kAB, kBC, false, workers, c)
	default: // ChainedAuto, ChainedNestedJoinCached
		return chainedNestedJoin(a, b, cRel, kAB, kBC, true, workers, c)
	}
}

// ChainedJoins is the sequential chained query.
func ChainedJoins(a, b, cRel *Relation, kAB, kBC int, qep ChainedQEP, c *stats.Counters) []Triple {
	return Chained(a, b, cRel, kAB, kBC, qep, 1, c)
}

// chainedRightDeep is QEP1: materialize the full join (B ⋈kNN C) as a map
// from b to its C-neighborhood, then probe it — shared read-only across
// workers — for every b produced by (A ⋈kNN B). No output is produced until
// the inner join completes, and neighborhoods are computed even for b
// values never selected by any a.
func chainedRightDeep(a, b, cRel Operand, kAB, kBC, workers int, c *stats.Counters) []Triple {
	bc := groupRightsByLeft(Join(b, cRel, kBC, workers, c), min(kBC, cRel.Len()))
	units := a.Units()
	return scatter(&TripleArenas, len(units), b, workers, 0, c,
		func(p Probe, ctr *stats.Counters) func(int, []Triple) []Triple {
			var out []Triple
			emit := func(ap geom.Point, nbrA *locality.Neighborhood) {
				for _, bp := range nbrA.Points {
					for _, cp := range bc[bp] {
						out = append(out, Triple{A: ap, B: bp, C: cp})
					}
				}
			}
			return func(i int, dst []Triple) []Triple {
				out = dst
				p.JoinUnit(units[i], kAB, nil, ctr, emit)
				dst, out = out, nil
				return dst
			}
		})
}

// chainedJoinIntersection is QEP2: both joins run independently (one after
// the other, each fanned out) and their pair sets are intersected on B.
func chainedJoinIntersection(a, b, cRel Operand, kAB, kBC, workers int, c *stats.Counters) []Triple {
	abPairs := Join(a, b, kAB, workers, c)
	cByB := groupRightsByLeft(Join(b, cRel, kBC, workers, c), min(kBC, cRel.Len()))
	var out []Triple
	for _, pr := range abPairs {
		for _, cp := range cByB[pr.Right] {
			out = append(out, Triple{A: pr.Left, B: pr.Right, C: cp})
		}
	}
	return out
}

// groupRightsByLeft groups the Right components of pairs by their Left
// point, capping each list at maxLen. B may hold duplicate coordinates
// (e.g. co-located observations), and each duplicate instance contributes
// an identical neighborhood run to the pair set; every neighborhood has
// exactly maxLen = min(k, |inner|) entries, so the cap keeps the first full
// copy and drops repeats, regardless of run interleaving — one list per
// distinct b value, as the probing QEPs expect, each allocated once at its
// final size.
func groupRightsByLeft(pairs []Pair, maxLen int) map[geom.Point][]geom.Point {
	m := make(map[geom.Point][]geom.Point)
	for _, pr := range pairs {
		lst, ok := m[pr.Left]
		if !ok {
			lst = make([]geom.Point, 0, maxLen)
		}
		if len(lst) < maxLen {
			m[pr.Left] = append(lst, pr.Right)
		}
	}
	return m
}

// chainedNestedJoin is QEP3: the first join runs in full, then its pairs
// fan out in chunks, each worker computing (or fetching from its cache) the
// C-neighborhood of each pair's b. Only b values that some a actually
// selects incur neighborhood computations. The two joins run one after the
// other, so a worker holds a probe on B or on C, never both. When caching,
// each worker keeps its own neighborhood cache: a shared one would serialize
// the crew behind a lock, so a parallel run trades duplicate misses across
// workers (same answers, lower hit counts) for lock-free probing.
func chainedNestedJoin(a, b, cRel Operand, kAB, kBC int, useCache bool, workers int, c *stats.Counters) []Triple {
	abPairs := Join(a, b, kAB, workers, c)
	var chunks [][]Pair
	Chunks(len(abPairs), workers, func(start, end int) {
		chunks = append(chunks, abPairs[start:end])
	})
	return scatter(&TripleArenas, len(chunks), cRel, workers, 0, c,
		func(p Probe, ctr *stats.Counters) func(int, []Triple) []Triple {
			var (
				out   []Triple
				chunk []Pair
				next  int          // uncached: the pair the next neighborhood belongs to
				bs    []geom.Point // scratch: the b values the chunk probes, in pair order
				cache map[geom.Point][]geom.Point
			)
			if useCache {
				cache = make(map[geom.Point][]geom.Point)
			}
			emit := func(bp geom.Point, nbr *locality.Neighborhood) {
				if useCache {
					cache[bp] = append([]geom.Point(nil), nbr.Points...)
					return
				}
				for _, cp := range nbr.Points {
					out = append(out, Triple{A: chunk[next].Left, B: bp, C: cp})
				}
				next++
			}
			return func(i int, dst []Triple) []Triple {
				chunk, next, out, bs = chunks[i], 0, dst, bs[:0]
				// The chunk's b values — when caching, the distinct uncached
				// ones in first-occurrence order — are one join unit of their
				// own: over remote shards, one focal group.
				for _, pr := range chunk {
					if useCache {
						if _, ok := cache[pr.Right]; ok {
							ctr.AddCacheHit()
							continue
						}
						ctr.AddCacheMiss()
						cache[pr.Right] = nil
					}
					bs = append(bs, pr.Right)
				}
				p.JoinUnit(Unit{Points: bs}, kBC, nil, ctr, emit)
				if useCache {
					for _, pr := range chunk {
						for _, cp := range cache[pr.Right] {
							out = append(out, Triple{A: pr.Left, B: pr.Right, C: cp})
						}
					}
				}
				dst, out = out, nil
				return dst
			}
		})
}
