package server

import (
	"context"
	"fmt"
	"net/http"
	"slices"

	twoknn "repro"
	"repro/internal/qcache"
)

// routes is the POST route table. Each entry names the route, the request
// type its body strictly decodes into, the datasets the request names in
// operand order, and the one twoknn call that answers it; Handler registers
// every entry over serve, the one request lifecycle. name keys the route's
// /metrics counters.
var routes = []struct {
	path, name string
	handler    func(*Server, *routeMetrics) http.HandlerFunc
}{
	{"/v1/query/knn-select", "knn-select", query(
		func(q *KNNSelectRequest) operands { return operands{q.Dataset} },
		func(q *KNNSelectRequest, src [3]twoknn.Source, opts []twoknn.QueryOption) (answer, error) {
			pts, err := twoknn.KNNSelect(src[0], q.F.Point(), q.K, opts...)
			return answer{points: pts}, err
		})},
	{"/v1/query/knn-select-batch", "knn-select-batch", serve(hooks[KNNSelectBatchRequest]{
		operands: func(q *KNNSelectBatchRequest) operands { return operands{q.Dataset} },
		run:      evalKNNSelectBatch,
	})},
	{"/v1/query/knn-join", "knn-join", query(
		func(q *KNNJoinRequest) operands { return operands{q.Outer, q.Inner} },
		func(q *KNNJoinRequest, src [3]twoknn.Source, opts []twoknn.QueryOption) (answer, error) {
			pairs, err := twoknn.KNNJoin(src[0], src[1], q.K, opts...)
			return answer{pairs: pairs}, err
		})},
	{"/v1/query/select-inner-join", "select-inner-join", query(
		func(q *SelectInnerJoinRequest) operands { return operands{q.Outer, q.Inner} },
		func(q *SelectInnerJoinRequest, src [3]twoknn.Source, opts []twoknn.QueryOption) (answer, error) {
			pairs, err := twoknn.SelectInnerJoin(src[0], src[1], q.F.Point(), q.KJoin, q.KSel, opts...)
			return answer{pairs: pairs}, err
		})},
	{"/v1/query/select-outer-join", "select-outer-join", query(
		func(q *SelectOuterJoinRequest) operands { return operands{q.Outer, q.Inner} },
		func(q *SelectOuterJoinRequest, src [3]twoknn.Source, opts []twoknn.QueryOption) (answer, error) {
			pairs, err := twoknn.SelectOuterJoin(src[0], src[1], q.F.Point(), q.KSel, q.KJoin, opts...)
			return answer{pairs: pairs}, err
		})},
	{"/v1/query/two-selects", "two-selects", query(
		func(q *TwoSelectsRequest) operands { return operands{q.Dataset} },
		func(q *TwoSelectsRequest, src [3]twoknn.Source, opts []twoknn.QueryOption) (answer, error) {
			pts, err := twoknn.TwoSelects(src[0], q.F1.Point(), q.K1, q.F2.Point(), q.K2, opts...)
			return answer{points: pts}, err
		})},
	{"/v1/query/unchained-joins", "unchained-joins", query(
		func(q *UnchainedJoinsRequest) operands { return operands{q.A, q.B, q.C} },
		func(q *UnchainedJoinsRequest, src [3]twoknn.Source, opts []twoknn.QueryOption) (answer, error) {
			ts, err := twoknn.UnchainedJoins(src[0], src[1], src[2], q.KAB, q.KCB, opts...)
			return answer{triples: ts}, err
		})},
	{"/v1/query/chained-joins", "chained-joins", query(
		func(q *ChainedJoinsRequest) operands { return operands{q.A, q.B, q.C} },
		func(q *ChainedJoinsRequest, src [3]twoknn.Source, opts []twoknn.QueryOption) (answer, error) {
			ts, err := twoknn.ChainedJoins(src[0], src[1], src[2], q.KAB, q.KBC, opts...)
			return answer{triples: ts}, err
		})},
	{"/v1/query/range-inner-join", "range-inner-join", query(
		func(q *RangeInnerJoinRequest) operands { return operands{q.Outer, q.Inner} },
		func(q *RangeInnerJoinRequest, src [3]twoknn.Source, opts []twoknn.QueryOption) (answer, error) {
			pairs, err := twoknn.RangeInnerJoin(src[0], src[1], q.Range.Rect(), q.KJoin, opts...)
			return answer{pairs: pairs}, err
		})},
	{"/v1/data/insert", "data-insert", serve(hooks[InsertRequest]{
		operands: func(q *InsertRequest) operands { return operands{q.Dataset} },
		mutates:  true,
		run: func(_ context.Context, q *InsertRequest, ds [3]*dataset) (any, error) {
			rel := ds[0].src.(*twoknn.Relation)
			pts := make([]twoknn.Point, len(q.Points))
			for i, p := range q.Points {
				pts[i] = p.Point()
			}
			ids := rel.Insert(pts...)
			return MutateResponse{IDs: ids, Epoch: rel.Epoch(), Len: rel.Len()}, nil
		},
	})},
	{"/v1/data/remove", "data-remove", serve(hooks[RemoveRequest]{
		operands: func(q *RemoveRequest) operands { return operands{q.Dataset} },
		mutates:  true,
		run: func(_ context.Context, q *RemoveRequest, ds [3]*dataset) (any, error) {
			rel := ds[0].src.(*twoknn.Relation)
			removed := rel.Remove(q.IDs...)
			return MutateResponse{Removed: removed, Epoch: rel.Epoch(), Len: rel.Len()}, nil
		},
	})},
}

// operands are the dataset names a request reads or writes, in operand
// order; a route with fewer than three leaves the rest empty.
type operands [3]string

// hooks are the request-type-specific steps of one route.
type hooks[R any] struct {
	operands func(*R) operands

	// mutates marks a data route, whose one operand must be a single
	// relation: mutating one shard of a partition would corrupt it.
	mutates bool

	// run answers the request against its resolved operands under the
	// request context; the value it returns is the 200 body.
	run func(ctx context.Context, q *R, ds [3]*dataset) (any, error)
}

// serve is the request lifecycle every route runs: strict decode, dataset
// resolution (an error is a 400), admission, the deadline budget, the run
// step, the error→status mapping and the encode. A mutation takes no
// timeout_ms and ignores the deadline: once admitted, its batch is small
// and always completes.
func serve[R any, P interface {
	*R
	Request
}](h hooks[R]) func(*Server, *routeMetrics) http.HandlerFunc {
	return func(s *Server, m *routeMetrics) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			m.requests.Add(1)
			q := new(R)
			err := DecodeRequest(r.Body, P(q))
			var ds [3]*dataset
			if err == nil {
				ds, err = s.resolve(h.operands(q), h.mutates)
			}
			if err != nil {
				m.badRequest.Add(1)
				writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Code: "bad_request"})
				return
			}

			release, ok := admit(ds[:]...)
			if !ok {
				s.shed(w, m, s.retryAfterFor(ds[:]...), fmt.Errorf("server: dataset admission gate full"))
				return
			}
			defer release()

			var timeoutMS int64
			if qr, ok := any(q).(queryRequest); ok {
				timeoutMS = qr.common().TimeoutMS
			}
			ctx, cancel := context.WithTimeout(r.Context(), s.budgetFor(ds[:], timeoutMS))
			defer cancel()

			body, err := h.run(ctx, q, ds)
			if err != nil {
				s.writeQueryError(w, m, s.retryAfterFor(ds[:]...), err)
				return
			}
			m.ok.Add(1)
			writeJSON(w, http.StatusOK, body)
		}
	}
}

// resolve looks up a request's operands. A query passes an unknown name on
// as a nil dataset, whose nil source the engine rejects with ErrNilRelation
// (a 400 too); a mutation's operand must resolve to a single relation.
func (s *Server) resolve(names operands, mutates bool) (ds [3]*dataset, err error) {
	for i, n := range names {
		if n != "" {
			ds[i] = s.lookup(n)
		}
	}
	if !mutates {
		return ds, nil
	}
	if ds[0] == nil {
		return ds, fmt.Errorf("server: unknown dataset %q", names[0])
	}
	if _, ok := ds[0].src.(*twoknn.Relation); !ok {
		return ds, fmt.Errorf("server: dataset %q is sharded; sharded datasets do not accept mutations", names[0])
	}
	return ds, nil
}

// query is serve over a query route's run step: call is the one twoknn
// call that answers the request over its operands' sources, under the
// engine options of the request's Common, and the response is its answer
// rendered against the operands, with the request's stats and EXPLAIN.
func query[R any, P interface {
	*R
	queryRequest
}](operands func(*R) operands,
	call func(q *R, src [3]twoknn.Source, opts []twoknn.QueryOption) (answer, error),
) func(*Server, *routeMetrics) http.HandlerFunc {
	return serve[R, P](hooks[R]{operands: operands, run: func(ctx context.Context, q *R, ds [3]*dataset) (any, error) {
		var st twoknn.Stats
		opts, explain := queryOpts(ctx, P(q).common(), &st)
		var src [3]twoknn.Source
		for i, d := range ds {
			src[i] = source(d)
		}
		a, err := call(q, src, opts)
		if err != nil {
			return nil, err
		}
		return finish(a.render(ds), &st, explain, ds), nil
	}})
}

// queryOpts assembles the engine options every route shares: the request
// context (deadline + cancellation), per-request stats, the forced algorithm
// and, when asked for, an EXPLAIN target.
func queryOpts(ctx context.Context, c *Common, st *twoknn.Stats) ([]twoknn.QueryOption, *string) {
	// Validate vetted the name; the empty one is auto and parses nothing,
	// so the common request formats no error.
	alg := twoknn.AlgorithmAuto
	if c.Algorithm != "" {
		alg, _ = ParseAlgorithm(c.Algorithm)
	}
	opts := []twoknn.QueryOption{
		twoknn.WithContext(ctx),
		twoknn.WithStats(st),
		twoknn.WithAlgorithm(alg),
	}
	var explain *string
	if c.Explain {
		explain = new(string)
		opts = append(opts, twoknn.WithExplain(explain))
	}
	return opts, explain
}

// finish folds the request's counters into every distinct operand dataset's
// lifetime totals and fills the envelope's shared fields.
func finish(resp QueryResponse, st *twoknn.Stats, explain *string, ds [3]*dataset) QueryResponse {
	for i, d := range ds {
		if d != nil && !slices.Contains(ds[:i], d) {
			d.stats.Add(st)
		}
	}
	resp.Stats = st.Snapshot()
	if explain != nil {
		resp.Explain = *explain
	}
	return resp
}

// answer is a query's result in the engine's types; the field set is the
// route's result shape.
type answer struct {
	points  []twoknn.Point
	pairs   []twoknn.Pair
	triples []twoknn.Triple
}

// render resolves an answer to wire rows against its operands' render
// tables: points against operand 0, pairs against 0 and 1, triples against
// 0, 1 and 2.
func (a answer) render(ds [3]*dataset) QueryResponse {
	resp := QueryResponse{Count: len(a.points) + len(a.pairs) + len(a.triples)}
	if len(a.points) > 0 {
		resp.Points = pointRows(ds[0], a.points)
	}
	if len(a.pairs) > 0 {
		r0, r1 := ds[0].render(), ds[1].render()
		resp.Pairs = make([]PairRow, len(a.pairs))
		for i, pr := range a.pairs {
			resp.Pairs[i] = PairRow{Left: r0.row(pr.Left), Right: r1.row(pr.Right)}
		}
	}
	if len(a.triples) > 0 {
		r0, r1, r2 := ds[0].render(), ds[1].render(), ds[2].render()
		resp.Triples = make([]TripleRow, len(a.triples))
		for i, tr := range a.triples {
			resp.Triples[i] = TripleRow{A: r0.row(tr.A), B: r1.row(tr.B), C: r2.row(tr.C)}
		}
	}
	return resp
}

// pointRows renders a point result against one dataset's current render
// table (one epoch-check per call, not per point).
func pointRows(d *dataset, pts []twoknn.Point) []PointRow {
	rt := d.render()
	rows := make([]PointRow, len(pts))
	for i, p := range pts {
		rows[i] = rt.row(p)
	}
	return rows
}

// evalKNNSelectBatch is the batch route's run step: probe the dataset's
// epoch-keyed result cache per focal, run one KNNSelectBatch over all
// misses, store their IDs back, and render. EXPLAIN requests bypass the
// cache so the rendered plan reflects a real evaluation.
func evalKNNSelectBatch(ctx context.Context, req *KNNSelectBatchRequest, ds [3]*dataset) (any, error) {
	d := ds[0]
	var st twoknn.Stats
	opts, explain := queryOpts(ctx, &req.Common, &st)

	batches := make([][]PointRow, len(req.Focals))
	missIdx := make([]int, 0, len(req.Focals))
	missFocals := make([]twoknn.Point, 0, len(req.Focals))
	var epoch uint64
	var rt *renderTable
	useCache := d != nil && !req.Explain
	if useCache {
		epoch = d.src.Epoch()
		rt = d.render()
	}
	for i, f := range req.Focals {
		if useCache {
			key := qcache.Key{Epoch: epoch, FX: f.X, FY: f.Y, K: req.K, Shape: qcache.ShapeKNNSelect}
			if ids, ok := d.cache.Get(key); ok {
				// An ID the table no longer resolves means a mutation slid in
				// between the epoch read and the table load; fall through to a
				// real evaluation rather than render a stale row.
				if rows, ok := rt.rows(ids); ok {
					st.AddCacheHit()
					batches[i] = rows
					continue
				}
			}
			st.AddCacheMiss()
		}
		missIdx = append(missIdx, i)
		missFocals = append(missFocals, f.Point())
	}

	if len(missFocals) > 0 || d == nil {
		res, err := twoknn.KNNSelectBatch(source(d), missFocals, req.K, opts...)
		if err != nil {
			return nil, err
		}
		for j, i := range missIdx {
			rows := pointRows(d, res[j])
			batches[i] = rows
			if useCache {
				ids := make([]int32, len(rows))
				cacheable := true
				for r, row := range rows {
					if row.ID < 0 {
						cacheable = false // unresolvable point; don't memoize
						break
					}
					ids[r] = row.ID
				}
				if cacheable {
					f := req.Focals[i]
					d.cache.Put(qcache.Key{Epoch: epoch, FX: f.X, FY: f.Y, K: req.K, Shape: qcache.ShapeKNNSelect}, ids)
				}
			}
		}
	}

	count := 0
	for _, rows := range batches {
		count += len(rows)
	}
	return finish(QueryResponse{Batches: batches, Count: count}, &st, explain, ds), nil
}
