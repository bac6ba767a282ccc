package server_test

// The end-to-end differential battery: every query route × {single,
// hash-sharded, spatial-sharded} backing served through a real HTTP stack
// (httptest.Server), with the decoded response asserted byte-identical
// (after canonical sort) to the direct in-process call on the same source.
// The wire layer must not perturb the exact-answer contract.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	twoknn "repro"
	"repro/internal/dataload"
	"repro/internal/server"
)

// testPoints generates the three deterministic point sets every test
// shares: a clustered outer, a uniform inner and a traffic-shaped third.
func testPoints(t testing.TB) (outer, inner, third []twoknn.Point) {
	t.Helper()
	outer = datagenPoints(t, "clustered:clusters=3,per=150,seed=11")
	inner = datagenPoints(t, "uniform:n=400,seed=12")
	third = datagenPoints(t, "uniform:n=350,seed=13")
	return outer, inner, third
}

// datagenPoints generates the points of a dataset spec.
func datagenPoints(t testing.TB, spec string) []twoknn.Point {
	t.Helper()
	sp, err := dataload.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := sp.Points()
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// backing is one way to host the three datasets: single relations or a
// sharded partition.
type backing struct {
	label  string
	shards int
	policy twoknn.ShardPolicy
}

var backings = []backing{
	{label: "single"},
	{label: "hash3", shards: 3, policy: twoknn.HashSharding},
	{label: "spatial2", shards: 2, policy: twoknn.SpatialSharding},
}

// build materializes a named point set under the backing.
func (b backing) build(t testing.TB, name string, pts []twoknn.Point, opts ...twoknn.RelationOption) twoknn.Source {
	t.Helper()
	if b.shards > 0 {
		opts = append(opts, twoknn.WithShardPolicy(b.policy))
		sr, err := twoknn.NewShardedRelation(name, pts, b.shards, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	r, err := twoknn.NewRelation(name, pts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// registry is a served server plus the sources it holds, so oracle calls
// run against the exact same backing objects.
type registry struct {
	srv     *server.Server
	ts      *httptest.Server
	sources map[string]twoknn.Source
	ids     map[string]map[twoknn.Point]int32
}

// newRegistry starts an httptest server holding outer/inner/third under
// every backing ("outer-single", "outer-hash3", ...).
func newRegistry(t testing.TB, cfg server.Config) *registry {
	t.Helper()
	outer, inner, third := testPoints(t)
	reg := &registry{
		srv:     server.New(cfg),
		sources: make(map[string]twoknn.Source),
		ids:     make(map[string]map[twoknn.Point]int32),
	}
	for _, b := range backings {
		for role, pts := range map[string][]twoknn.Point{"outer": outer, "inner": inner, "third": third} {
			name := role + "-" + b.label
			src := b.build(t, name, pts)
			if err := reg.srv.Register(name, src); err != nil {
				t.Fatal(err)
			}
			reg.sources[name] = src
			reg.ids[name] = idMap(t, src)
		}
	}
	reg.ts = httptest.NewServer(reg.srv.Handler())
	t.Cleanup(reg.ts.Close)
	return reg
}

// idMap reproduces the server's coordinate→stable-ID mapping rule from the
// public point/ID accessors: co-located points resolve to the smallest ID.
func idMap(t testing.TB, src twoknn.Source) map[twoknn.Point]int32 {
	t.Helper()
	var pts []twoknn.Point
	var ids []int32
	switch r := src.(type) {
	case *twoknn.Relation:
		pts, ids = r.Points(), r.PointIDs()
	case *twoknn.ShardedRelation:
		pts, ids = r.Points(), r.PointIDs()
	default:
		t.Fatalf("unexpected source type %T", src)
	}
	if len(pts) != len(ids) {
		t.Fatalf("Points/PointIDs not parallel: %d vs %d", len(pts), len(ids))
	}
	m := make(map[twoknn.Point]int32, len(pts))
	for i, p := range pts {
		if old, ok := m[p]; !ok || ids[i] < old {
			m[p] = ids[i]
		}
	}
	return m
}

func (reg *registry) row(dataset string, p twoknn.Point) server.PointRow {
	id, ok := reg.ids[dataset][p]
	if !ok {
		id = -1
	}
	return server.PointRow{ID: id, X: p.X, Y: p.Y}
}

// post sends a request struct to a query route and returns status and body.
func (reg *registry) post(t testing.TB, route string, req server.Request) (int, []byte) {
	t.Helper()
	body, err := server.EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(reg.ts.URL+"/v1/query/"+route, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// query posts and decodes a successful response.
func (reg *registry) query(t testing.TB, route string, req server.Request) server.QueryResponse {
	t.Helper()
	status, body := reg.post(t, route, req)
	if status != http.StatusOK {
		t.Fatalf("POST %s: status %d, body %s", route, status, body)
	}
	var out server.QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding response: %v (%s)", err, body)
	}
	return out
}

// canonical renders rows sorted into one byte string: the "byte-identical
// after canonical sort" form both sides of the differential are compared in.
func canonical[T any](t testing.TB, rows []T) string {
	t.Helper()
	enc := make([]string, len(rows))
	for i, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		enc[i] = string(b)
	}
	sort.Strings(enc)
	return strings.Join(enc, "\n")
}

// diffRows asserts the served rows are byte-identical to the oracle rows
// after canonical sort.
func diffRows[T any](t *testing.T, got, want []T, count int) {
	t.Helper()
	if count != len(got) {
		t.Errorf("response count %d does not match %d rows", count, len(got))
	}
	g, w := canonical(t, got), canonical(t, want)
	if g != w {
		t.Errorf("served result diverges from in-process oracle:\nserved (%d rows):\n%s\noracle (%d rows):\n%s",
			len(got), g, len(want), w)
	}
}

var focal = server.PointArg{X: 5000, Y: 5000}
var focal2 = server.PointArg{X: 5100, Y: 4900}

func TestDifferentialBattery(t *testing.T) {
	reg := newRegistry(t, server.Config{})
	for _, b := range backings {
		outerN, innerN, thirdN := "outer-"+b.label, "inner-"+b.label, "third-"+b.label
		outer, inner, third := reg.sources[outerN], reg.sources[innerN], reg.sources[thirdN]

		t.Run("knn-select/"+b.label, func(t *testing.T) {
			resp := reg.query(t, "knn-select", &server.KNNSelectRequest{Dataset: outerN, F: focal, K: 5})
			pts, err := twoknn.KNNSelect(outer, focal.Point(), 5)
			if err != nil {
				t.Fatal(err)
			}
			diffRows(t, resp.Points, pointOracle(reg, outerN, pts), resp.Count)
		})

		t.Run("knn-join/"+b.label, func(t *testing.T) {
			resp := reg.query(t, "knn-join", &server.KNNJoinRequest{Outer: outerN, Inner: innerN, K: 3})
			pairs, err := twoknn.KNNJoin(outer, inner, 3)
			if err != nil {
				t.Fatal(err)
			}
			diffRows(t, resp.Pairs, pairOracle(reg, outerN, innerN, pairs), resp.Count)
		})

		t.Run("select-inner-join/"+b.label, func(t *testing.T) {
			resp := reg.query(t, "select-inner-join", &server.SelectInnerJoinRequest{
				Outer: outerN, Inner: innerN, F: focal, KJoin: 3, KSel: 8})
			pairs, err := twoknn.SelectInnerJoin(outer, inner, focal.Point(), 3, 8)
			if err != nil {
				t.Fatal(err)
			}
			diffRows(t, resp.Pairs, pairOracle(reg, outerN, innerN, pairs), resp.Count)
		})

		t.Run("select-outer-join/"+b.label, func(t *testing.T) {
			resp := reg.query(t, "select-outer-join", &server.SelectOuterJoinRequest{
				Outer: outerN, Inner: innerN, F: focal, KSel: 6, KJoin: 3})
			pairs, err := twoknn.SelectOuterJoin(outer, inner, focal.Point(), 6, 3)
			if err != nil {
				t.Fatal(err)
			}
			diffRows(t, resp.Pairs, pairOracle(reg, outerN, innerN, pairs), resp.Count)
		})

		t.Run("two-selects/"+b.label, func(t *testing.T) {
			resp := reg.query(t, "two-selects", &server.TwoSelectsRequest{
				Dataset: outerN, F1: focal, K1: 7, F2: focal2, K2: 9})
			pts, err := twoknn.TwoSelects(outer, focal.Point(), 7, focal2.Point(), 9)
			if err != nil {
				t.Fatal(err)
			}
			diffRows(t, resp.Points, pointOracle(reg, outerN, pts), resp.Count)
		})

		t.Run("unchained-joins/"+b.label, func(t *testing.T) {
			resp := reg.query(t, "unchained-joins", &server.UnchainedJoinsRequest{
				A: outerN, B: innerN, C: thirdN, KAB: 2, KCB: 2})
			ts, err := twoknn.UnchainedJoins(outer, inner, third, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			diffRows(t, resp.Triples, tripleOracle(reg, outerN, innerN, thirdN, ts), resp.Count)
		})

		t.Run("chained-joins/"+b.label, func(t *testing.T) {
			resp := reg.query(t, "chained-joins", &server.ChainedJoinsRequest{
				A: outerN, B: innerN, C: thirdN, KAB: 2, KBC: 2})
			ts, err := twoknn.ChainedJoins(outer, inner, third, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			diffRows(t, resp.Triples, tripleOracle(reg, outerN, innerN, thirdN, ts), resp.Count)
		})

		t.Run("range-inner-join/"+b.label, func(t *testing.T) {
			rng := server.RectArg{MinX: 3000, MinY: 3000, MaxX: 7000, MaxY: 7000}
			resp := reg.query(t, "range-inner-join", &server.RangeInnerJoinRequest{
				Outer: outerN, Inner: innerN, Range: rng, KJoin: 3})
			pairs, err := twoknn.RangeInnerJoin(outer, inner,
				twoknn.NewRect(rng.MinX, rng.MinY, rng.MaxX, rng.MaxY), 3)
			if err != nil {
				t.Fatal(err)
			}
			diffRows(t, resp.Pairs, pairOracle(reg, outerN, innerN, pairs), resp.Count)
		})
	}
}

// TestSelectOuterJoinRouteHugeKJoin: a k_join far beyond the inner dataset
// is answered like k_join = |inner|, not with a failed allocation.
func TestSelectOuterJoinRouteHugeKJoin(t *testing.T) {
	outer, inner := datagenPoints(t, "uniform:n=200,seed=21"), datagenPoints(t, "uniform:n=20,seed=22")
	srv := server.New(server.Config{})
	for name, pts := range map[string][]twoknn.Point{"o": outer, "i": inner} {
		rel, err := twoknn.NewRelation(name, pts)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Register(name, rel); err != nil {
			t.Fatal(err)
		}
	}
	reg := &registry{srv: srv, ts: httptest.NewServer(srv.Handler())}
	defer reg.ts.Close()
	resp := reg.query(t, "select-outer-join", &server.SelectOuterJoinRequest{Outer: "o", Inner: "i", F: focal, KSel: 10, KJoin: 1 << 40})
	if resp.Count != 200 || len(resp.Pairs) != 200 {
		t.Errorf("count %d, %d pairs: want 200 (10 selected tuples × all 20 inner points)", resp.Count, len(resp.Pairs))
	}
}

// TestDifferentialAcrossBackings pins the cross-backing invariant end to
// end: the same query served from single, hash-sharded and spatial-sharded
// datasets returns the same canonical bytes.
func TestDifferentialAcrossBackings(t *testing.T) {
	reg := newRegistry(t, server.Config{})
	var results []string
	for _, b := range backings {
		resp := reg.query(t, "select-inner-join", &server.SelectInnerJoinRequest{
			Outer: "outer-" + b.label, Inner: "inner-" + b.label, F: focal, KJoin: 3, KSel: 8})
		results = append(results, canonical(t, resp.Pairs))
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Errorf("backing %s serves different rows than %s", backings[i].label, backings[0].label)
		}
	}
}

// TestDifferentialAlgorithms holds the wire layer to the same answer under
// every forced strategy.
func TestDifferentialAlgorithms(t *testing.T) {
	reg := newRegistry(t, server.Config{})
	var results []string
	for _, alg := range []string{"auto", "conceptual", "counting", "block-marking"} {
		req := &server.SelectInnerJoinRequest{Outer: "outer-single", Inner: "inner-single", F: focal, KJoin: 3, KSel: 8}
		req.Algorithm = alg
		resp := reg.query(t, "select-inner-join", req)
		results = append(results, canonical(t, resp.Pairs))
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Errorf("algorithm variant %d serves different rows", i)
		}
	}
}

// TestExplainAndStats covers the observability fields of the envelope.
// EXPLAIN is a plan-selection rendering, so it uses a two-predicate shape.
func TestExplainAndStats(t *testing.T) {
	reg := newRegistry(t, server.Config{})
	req := &server.SelectInnerJoinRequest{Outer: "outer-single", Inner: "inner-single", F: focal, KJoin: 3, KSel: 8}
	req.Explain = true
	resp := reg.query(t, "select-inner-join", req)
	if resp.Explain == "" {
		t.Error("explain requested but response has none")
	}
	if resp.Stats.Neighborhoods == 0 {
		t.Error("stats should record neighborhood computations for a join")
	}
	// Every route renders the plan that ran, the single-predicate ones too.
	joinReq := &server.KNNJoinRequest{Outer: "outer-single", Inner: "inner-single", K: 3}
	joinReq.Explain = true
	if resp := reg.query(t, "knn-join", joinReq); !strings.Contains(resp.Explain, "kNN-join [k=3]") {
		t.Errorf("knn-join explain requested, got %q", resp.Explain)
	}
	noExplain := reg.query(t, "knn-join", &server.KNNJoinRequest{Outer: "outer-single", Inner: "inner-single", K: 3})
	if noExplain.Explain != "" {
		t.Error("explain not requested but response has one")
	}
	if noExplain.Stats.Neighborhoods == 0 {
		t.Error("stats should record neighborhood computations for a join")
	}
}

// pointOracle converts an in-process point result into wire rows via the
// same ID mapping the server uses.
func pointOracle(reg *registry, dataset string, pts []twoknn.Point) []server.PointRow {
	rows := make([]server.PointRow, len(pts))
	for i, p := range pts {
		rows[i] = reg.row(dataset, p)
	}
	return rows
}

func pairOracle(reg *registry, outer, inner string, pairs []twoknn.Pair) []server.PairRow {
	rows := make([]server.PairRow, len(pairs))
	for i, pr := range pairs {
		rows[i] = server.PairRow{Left: reg.row(outer, pr.Left), Right: reg.row(inner, pr.Right)}
	}
	return rows
}

func tripleOracle(reg *registry, a, b, c string, ts []twoknn.Triple) []server.TripleRow {
	rows := make([]server.TripleRow, len(ts))
	for i, tr := range ts {
		rows[i] = server.TripleRow{A: reg.row(a, tr.A), B: reg.row(b, tr.B), C: reg.row(c, tr.C)}
	}
	return rows
}

// TestStableIDsResolve asserts every served row resolves a real stable ID:
// the ID round-trips through PointByID to the row's coordinates.
func TestStableIDsResolve(t *testing.T) {
	reg := newRegistry(t, server.Config{})
	resp := reg.query(t, "knn-select", &server.KNNSelectRequest{Dataset: "outer-single", F: focal, K: 10})
	rel := reg.sources["outer-single"].(*twoknn.Relation)
	for _, row := range resp.Points {
		if row.ID < 0 {
			t.Fatalf("row %+v has unresolved ID", row)
		}
		p, ok := rel.PointByID(row.ID)
		if !ok {
			t.Fatalf("ID %d does not resolve", row.ID)
		}
		if p.X != row.X || p.Y != row.Y {
			t.Fatalf("ID %d resolves to %v, row says (%g, %g)", row.ID, p, row.X, row.Y)
		}
	}
}

// TestMetricsAndHealth covers the observability surface.
func TestMetricsAndHealth(t *testing.T) {
	reg := newRegistry(t, server.Config{})
	reg.query(t, "knn-select", &server.KNNSelectRequest{Dataset: "outer-single", F: focal, K: 5})
	reg.query(t, "knn-select", &server.KNNSelectRequest{Dataset: "outer-hash3", F: focal, K: 5})

	resp, err := http.Get(reg.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health server.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Datasets != 9 {
		t.Errorf("healthz = %+v, want ok with 9 datasets", health)
	}

	resp, err = http.Get(reg.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m server.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if len(m.Datasets) != 9 {
		t.Fatalf("metrics reports %d datasets, want 9", len(m.Datasets))
	}
	single := m.Datasets["outer-single"]
	if single.Points != 450 || single.Shards != 0 || single.OutstandingSearchers != 0 {
		t.Errorf("outer-single metrics = %+v", single)
	}
	if single.Stats.Neighborhoods == 0 {
		t.Errorf("outer-single lifetime stats empty after a query: %+v", single.Stats)
	}
	sharded := m.Datasets["outer-hash3"]
	if sharded.Shards != 3 || sharded.Policy != "hash" || len(sharded.ShardStats) != 3 {
		t.Errorf("outer-hash3 metrics = %+v", sharded)
	}
	shardPts := 0
	for _, sh := range sharded.ShardStats {
		shardPts += sh.Points
	}
	if shardPts != 450 {
		t.Errorf("shard points sum to %d, want 450", shardPts)
	}
	rm := m.Routes["knn-select"]
	if rm.Requests != 2 || rm.OK != 2 {
		t.Errorf("knn-select route metrics = %+v, want 2 requests, 2 ok", rm)
	}
}

// TestMethodAndRouteErrors pins the HTTP-level rejections on every POST
// route, from one list: /metrics lists each route with zero counts before
// its first request, GET answers 405 and a truncated body 400; an unknown
// route is a 404.
func TestMethodAndRouteErrors(t *testing.T) {
	reg := newRegistry(t, server.Config{})
	routes := map[string]string{
		"knn-select":        "/v1/query/knn-select",
		"knn-select-batch":  "/v1/query/knn-select-batch",
		"knn-join":          "/v1/query/knn-join",
		"select-inner-join": "/v1/query/select-inner-join",
		"select-outer-join": "/v1/query/select-outer-join",
		"two-selects":       "/v1/query/two-selects",
		"unchained-joins":   "/v1/query/unchained-joins",
		"chained-joins":     "/v1/query/chained-joins",
		"range-inner-join":  "/v1/query/range-inner-join",
		"data-insert":       "/v1/data/insert",
		"data-remove":       "/v1/data/remove",
	}
	m := metricsOf(t, reg.ts.URL)
	for name, path := range routes {
		if rm, ok := m.Routes[name]; !ok || rm != (server.RouteMetrics{}) {
			t.Errorf("/metrics before any request: route %s = %+v (listed %v), want zero counts", name, rm, ok)
		}
		resp, err := http.Get(reg.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, resp.StatusCode)
		}
		resp, err = http.Post(reg.ts.URL+path, "application/json", strings.NewReader("{"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s with truncated JSON: status %d, want 400", path, resp.StatusCode)
		}
	}
	resp, err := http.Post(reg.ts.URL+"/v1/query/teleport", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown route: status %d, want 404", resp.StatusCode)
	}
}
