package main

import (
	"encoding/json"
	"fmt"
	"slices"

	twoknn "repro"
	"repro/internal/server"
)

// sources are the in-process relations behind a bind: the engine workload
// queries them directly, the served workloads use them as the oracle.
type sources struct {
	main, sites, innerOuter, depots twoknn.Source

	// liveIDs, when set, resolves main's stable IDs instead of PointByID:
	// on a relation mutated many times a second, PointByID would rebuild its
	// O(n) inverse map for every snapshot a check lands on.
	liveIDs map[int32]twoknn.Point
}

// pointByID resolves a stable ID in the relation a result column came from.
func (s sources) pointByID(src twoknn.Source, id int32) (twoknn.Point, bool) {
	if s.liveIDs != nil && src == s.main {
		p, ok := s.liveIDs[id]
		return p, ok
	}
	return src.(*twoknn.Relation).PointByID(id)
}

// result is one operation's answer; exactly one field is set, by kind.
type result struct {
	points  []twoknn.Point
	pairs   []twoknn.Pair
	triples []twoknn.Triple
	batches [][]twoknn.Point
}

// run evaluates the operation through the public API, as knnserve's
// handlers do.
func (s sources) run(o *op, opts ...twoknn.QueryOption) (r result, err error) {
	switch o.kind {
	case opSelect:
		r.points, err = twoknn.KNNSelect(s.main, o.f, selectK, opts...)
	case opTwoSelects:
		f2 := twoknn.Point{X: o.f.X + twoSelShift, Y: o.f.Y - twoSelShift}
		r.points, err = twoknn.TwoSelects(s.main, o.f, twoSelK1, f2, twoSelK2, opts...)
	case opOuterJoin:
		r.pairs, err = twoknn.SelectOuterJoin(s.sites, s.main, o.f, joinK, joinK, opts...)
	case opInnerJoin:
		r.pairs, err = twoknn.SelectInnerJoin(s.innerOuter, s.main, o.f, joinK, joinK, opts...)
	case opBatch:
		r.batches, err = twoknn.KNNSelectBatch(s.main, o.focals, selectK, opts...)
	case opUnchained:
		r.triples, err = twoknn.UnchainedJoins(s.depots, s.main, s.sites, unchainedAB, unchainedCB, opts...)
	case opChained:
		r.triples, err = twoknn.ChainedJoins(s.depots, s.sites, s.main, chainedAB, chainedBC, opts...)
	}
	return r, err
}

// naiveKNN is the index-free reference: one linear pass keeping the k
// closest points in the engine's (distance, X, Y) order — locality.NaiveKNN
// without its full sort, which is too slow to run on 200k points per check.
func naiveKNN(pts []twoknn.Point, p twoknn.Point, k int) []twoknn.Point {
	best := make([]twoknn.Point, 0, k+1)
	for _, q := range pts {
		if len(best) == k && !q.CloserTo(p, best[k-1]) {
			continue
		}
		i := len(best)
		best = append(best, q)
		for i > 0 && q.CloserTo(p, best[i-1]) {
			best[i] = best[i-1]
			i--
		}
		best[i] = q
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// oracle answers the operation by the conceptually correct plan, sharing no
// pruning, caching or batching with the optimized path it checks.
func (s sources) oracle(o *op) (r result, err error) {
	switch o.kind {
	case opSelect:
		r.points = naiveKNN(points(s.main), o.f, selectK)
	case opBatch:
		pts := points(s.main)
		for _, f := range o.focals {
			r.batches = append(r.batches, naiveKNN(pts, f, selectK))
		}
	case opOuterJoin:
		inner := points(s.main)
		for _, left := range naiveKNN(points(s.sites), o.f, joinK) {
			for _, right := range naiveKNN(inner, left, joinK) {
				r.pairs = append(r.pairs, twoknn.Pair{Left: left, Right: right})
			}
		}
	case opTwoSelects, opInnerJoin:
		return s.run(o, twoknn.WithAlgorithm(twoknn.AlgorithmConceptual))
	case opChained:
		return s.run(o, twoknn.WithChainedQEP(twoknn.ChainedJoinIntersection))
	case opUnchained:
		ab, err := twoknn.KNNJoin(s.depots, s.main, unchainedAB)
		if err != nil {
			return r, err
		}
		cb, err := twoknn.KNNJoin(s.sites, s.main, unchainedCB)
		if err != nil {
			return r, err
		}
		lefts := make(map[twoknn.Point][]twoknn.Point)
		for _, p := range ab {
			lefts[p.Right] = append(lefts[p.Right], p.Left)
		}
		for _, p := range cb {
			for _, a := range lefts[p.Right] {
				r.triples = append(r.triples, twoknn.Triple{A: a, B: p.Right, C: p.Left})
			}
		}
	}
	return r, nil
}

func points(s twoknn.Source) []twoknn.Point {
	return s.(*twoknn.Relation).Points()
}

// canonical sorts join results in place; selects keep the engine's order,
// which is part of their answer.
func (r *result) canonical() {
	twoknn.SortPairs(r.pairs)
	twoknn.SortTriples(r.triples)
}

// same reports whether two answers are equal after canonical ordering.
func (r *result) same(o *result) bool {
	r.canonical()
	o.canonical()
	if !slices.Equal(r.points, o.points) || !slices.Equal(r.pairs, o.pairs) ||
		!slices.Equal(r.triples, o.triples) || len(r.batches) != len(o.batches) {
		return false
	}
	for i := range r.batches {
		if !slices.Equal(r.batches[i], o.batches[i]) {
			return false
		}
	}
	return true
}

// checkServed compares a served response with the direct in-process call on
// the same generated points: coordinates must be equal row for row (after
// canonical ordering of joins), and every row's stable ID must name a point
// with those coordinates in the relation it came from.
func (s sources) checkServed(o *op, body []byte) error {
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: undecodable response: %w", o.kind, err)
	}
	var got result
	var idErr error
	row := func(src twoknn.Source, r server.PointRow) twoknn.Point {
		p := twoknn.Point{X: r.X, Y: r.Y}
		if q, ok := s.pointByID(src, r.ID); !ok || q != p {
			idErr = fmt.Errorf("%s: row id %d does not name point %v", o.kind, r.ID, p)
		}
		return p
	}
	for _, r := range resp.Points {
		got.points = append(got.points, row(s.main, r))
	}
	outer := s.sites
	if o.kind == opInnerJoin {
		outer = s.innerOuter
	}
	for _, r := range resp.Pairs {
		got.pairs = append(got.pairs, twoknn.Pair{Left: row(outer, r.Left), Right: row(s.main, r.Right)})
	}
	for _, b := range resp.Batches {
		var pts []twoknn.Point
		for _, r := range b {
			pts = append(pts, row(s.main, r))
		}
		got.batches = append(got.batches, pts)
	}
	if idErr != nil {
		return idErr
	}
	want, err := s.run(o)
	if err != nil {
		return fmt.Errorf("%s: oracle: %w", o.kind, err)
	}
	if !got.same(&want) {
		return fmt.Errorf("%s at %v: served answer differs from the direct call", o.kind, o.f)
	}
	return nil
}
