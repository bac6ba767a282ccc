package core

import (
	"slices"

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

// chainedRightDeep is QEP1: materialize the full join (B ⋈kNN C), grouped
// by b, then probe it for every pair of (A ⋈kNN B). No output is produced
// until the inner join completes, and neighborhoods are computed even for b
// values never selected by any a.
func chainedRightDeep(a, b, cRel Operand, kAB, kBC, workers int, c *stats.Counters) []Triple {
	bcPairs := Join(b, cRel, kBC, workers, c)
	bc := groupOn(indexB(bcPairs, onLeft), bcPairs, onLeft, min(kBC, cRel.Len()))
	return joinOnB(nil, Join(a, b, kAB, workers, c), bc)
}

// chainedJoinIntersection is QEP2: both joins run independently (one after
// the other, each fanned out) and their pair sets are intersected on B. A
// duplicate b of B adds a repeat of its neighborhood's min(k, |C|) pairs,
// so capping each b's group there keeps one copy, as in QEP1 and QEP3.
func chainedJoinIntersection(a, b, cRel Operand, kAB, kBC, workers int, c *stats.Counters) []Triple {
	abPairs := Join(a, b, kAB, workers, c)
	bcPairs := Join(b, cRel, kBC, workers, c)
	return joinOnB(nil, abPairs, groupOn(indexB(abPairs, onRight), bcPairs, onLeft, min(kBC, cRel.Len())))
}

// chainedNestedJoin is QEP3: the first join runs in full, then its pairs
// fan out in chunks, each worker computing (or fetching from its cache) the
// C-neighborhood of each pair's b. Only b values that some a actually
// selects incur neighborhood computations. The two joins run one after the
// other, so a worker holds a probe on B or on C, never both. When caching,
// each worker keeps its own neighborhood cache: a shared one would serialize
// the crew behind a lock, so a parallel run trades duplicate misses across
// workers (same answers, lower hit counts) for lock-free probing. The cache
// keeps a worker's neighborhoods in one flat slice under their b's id, and a
// chunk's triples are counted before they are written.
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
				cache bGroups      // cached: every neighborhood computed, under its b
			)
			if useCache {
				cache = bGroups{ids: make(map[geom.Point]int32), off: []int32{0}}
			}
			emit := func(bp geom.Point, nbr *locality.Neighborhood) {
				if useCache {
					// JoinUnit emits in bs order, which is id order.
					cache.pts = append(cache.pts, nbr.Points...)
					cache.off = append(cache.off, int32(len(cache.pts)))
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
				// ones in first-occurrence order, each given the next id — are
				// one join unit of their own: over remote shards, one focal
				// group.
				for _, pr := range chunk {
					if useCache {
						if hasB(cache.ids, pr.Right) {
							ctr.AddCacheHit()
							continue
						}
						ctr.AddCacheMiss()
						cache.ids[pr.Right] = int32(len(cache.ids))
					}
					bs = append(bs, pr.Right)
				}
				if useCache {
					cache.pts = slices.Grow(cache.pts, len(bs)*min(kBC, cRel.Len()))
					cache.off = slices.Grow(cache.off, len(bs))
				}
				p.JoinUnit(Unit{Points: bs}, kBC, nil, ctr, emit)
				if useCache {
					out = joinOnB(out, chunk, cache)
				}
				dst, out = out, nil
				return dst
			}
		})
}
