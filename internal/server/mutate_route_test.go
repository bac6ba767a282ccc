package server_test

// End-to-end scenarios for the mutation routes POST /v1/data/insert and
// POST /v1/data/remove: mutations land in the served dataset (new IDs
// resolve in query responses through the epoch-refreshed render table),
// every mutation bumps the served epoch so stale batch-cache entries become
// unreachable, /metrics exposes the epoch/delta-residency/merge counters,
// and the 400 taxonomy covers sharded datasets and malformed bodies.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	twoknn "repro"
	"repro/internal/datagen"
	"repro/internal/server"
)

// mutableServer serves one mutable single relation ("trips") and one sharded
// relation ("grid2") for the rejection path.
func mutableServer(t testing.TB) (*httptest.Server, *twoknn.Relation) {
	t.Helper()
	bounds := twoknn.NewRect(0, 0, 1000, 1000)
	pts := datagen.Uniform(500, bounds, 21)
	rel, err := twoknn.NewRelation("trips", pts,
		twoknn.WithBlockCapacity(32), twoknn.WithCompactThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := twoknn.NewShardedRelation("grid2", datagen.Uniform(200, bounds, 22), 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	if err := srv.Register("trips", rel); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("grid2", sharded); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, rel
}

func postJSON(t testing.TB, url string, req server.Request) (int, []byte) {
	t.Helper()
	body, err := server.EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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

func mutate(t testing.TB, url string, req server.Request) server.MutateResponse {
	t.Helper()
	status, body := postJSON(t, url, req)
	if status != http.StatusOK {
		t.Fatalf("POST %s: status %d, body %s", url, status, body)
	}
	var out server.MutateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding mutate response: %v (%s)", err, body)
	}
	return out
}

func queryURL(t testing.TB, url string, req server.Request) server.QueryResponse {
	t.Helper()
	status, body := postJSON(t, url, req)
	if status != http.StatusOK {
		t.Fatalf("POST %s: status %d, body %s", url, status, body)
	}
	var out server.QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding query response: %v (%s)", err, body)
	}
	return out
}

func metricsOf(t testing.TB, base string) server.MetricsResponse {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m server.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMutationRoutes(t *testing.T) {
	ts, rel := mutableServer(t)
	insertURL := ts.URL + "/v1/data/insert"
	removeURL := ts.URL + "/v1/data/remove"
	epoch0 := rel.Epoch()

	// Insert two points, one far outside the built bounds.
	ins := mutate(t, insertURL, &server.InsertRequest{Dataset: "trips",
		Points: []server.PointArg{{X: 500.5, Y: 500.5}, {X: 4000, Y: 4000}}})
	if len(ins.IDs) != 2 || ins.IDs[0] != 500 || ins.IDs[1] != 501 {
		t.Fatalf("insert IDs = %v, want [500 501]", ins.IDs)
	}
	if ins.Epoch <= epoch0 || ins.Len != 502 {
		t.Fatalf("insert response epoch=%d len=%d (pre-epoch %d)", ins.Epoch, ins.Len, epoch0)
	}

	// The inserted point is queryable AND its fresh stable ID resolves in
	// the response row — the render table refreshed past the Register-time
	// snapshot (a dense Register-time table would have no row 500 at all).
	q := queryURL(t, ts.URL+"/v1/query/knn-select", &server.KNNSelectRequest{
		Dataset: "trips", F: server.PointArg{X: 500.5, Y: 500.5}, K: 1})
	if len(q.Points) != 1 || q.Points[0] != (server.PointRow{ID: 500, X: 500.5, Y: 500.5}) {
		t.Fatalf("inserted point not served with its new ID: %+v", q.Points)
	}

	// Remove one live and one dead ID: only the live one counts.
	rm := mutate(t, removeURL, &server.RemoveRequest{Dataset: "trips", IDs: []int32{500, 9999}})
	if rm.Removed != 1 || rm.Epoch <= ins.Epoch || rm.Len != 501 {
		t.Fatalf("remove response: %+v (insert epoch %d)", rm, ins.Epoch)
	}
	q = queryURL(t, ts.URL+"/v1/query/knn-select", &server.KNNSelectRequest{
		Dataset: "trips", F: server.PointArg{X: 500.5, Y: 500.5}, K: 1})
	if len(q.Points) == 1 && q.Points[0].ID == 500 {
		t.Fatalf("removed point still served: %+v", q.Points)
	}

	// Removing it again is a no-op with no epoch bump.
	rm2 := mutate(t, removeURL, &server.RemoveRequest{Dataset: "trips", IDs: []int32{500}})
	if rm2.Removed != 0 || rm2.Epoch != rm.Epoch {
		t.Fatalf("repeat remove: %+v (want removed=0, epoch %d)", rm2, rm.Epoch)
	}

	// 400 taxonomy.
	for _, tc := range []struct {
		name string
		url  string
		req  server.Request
	}{
		{"unknown dataset", insertURL, &server.InsertRequest{Dataset: "nope", Points: []server.PointArg{{X: 1, Y: 2}}}},
		{"sharded dataset", insertURL, &server.InsertRequest{Dataset: "grid2", Points: []server.PointArg{{X: 1, Y: 2}}}},
		{"sharded remove", removeURL, &server.RemoveRequest{Dataset: "grid2", IDs: []int32{0}}},
		{"empty points", insertURL, &server.InsertRequest{Dataset: "trips"}},
		{"empty ids", removeURL, &server.RemoveRequest{Dataset: "trips"}},
		{"negative id", removeURL, &server.RemoveRequest{Dataset: "trips", IDs: []int32{-4}}},
	} {
		status, body := postJSON(t, tc.url, tc.req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", tc.name, status, body)
		}
		var er server.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Code != "bad_request" {
			t.Errorf("%s: error body %s", tc.name, body)
		}
	}
	status, body := postJSON(t, insertURL, badFieldRequest{})
	if status != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, body %s", status, body)
	}
}

// TestMutationInsertRejectsNonFinite sends an insert whose coordinate
// overflows float64: the body is answered with 400 and the point never
// reaches the relation.
func TestMutationInsertRejectsNonFinite(t *testing.T) {
	ts, rel := mutableServer(t)
	n, epoch := rel.Len(), rel.Epoch()
	resp, err := http.Post(ts.URL+"/v1/data/insert", "application/json",
		strings.NewReader(`{"dataset":"trips","points":[{"x":1e999,"y":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("insert of 1e999: status %d, body %s; want 400", resp.StatusCode, body)
	}
	if rel.Len() != n || rel.Epoch() != epoch {
		t.Fatalf("insert of 1e999 reached the relation: Len %d → %d, Epoch %d → %d", n, rel.Len(), epoch, rel.Epoch())
	}
}

// badFieldRequest encodes a body with a field no mutation request has.
type badFieldRequest struct{}

func (badFieldRequest) Validate() error { return nil }
func (badFieldRequest) MarshalJSON() ([]byte, error) {
	return []byte(`{"dataset":"trips","frobnicate":true}`), nil
}

// TestMutationCacheInvalidation is the end-to-end invalidation scenario the
// epoch design promises: serve a batch (miss → cached), serve it again
// (hit), mutate through the data routes, and the stale cached result is
// unreachable — the same request misses again and reflects the mutation —
// while /metrics' epoch, delta-residency and hit/miss counters tell the
// same story.
func TestMutationCacheInvalidation(t *testing.T) {
	ts, rel := mutableServer(t)
	focal := server.PointArg{X: 321, Y: 321}
	batchReq := &server.KNNSelectBatchRequest{Dataset: "trips",
		Focals: []server.PointArg{focal, focal}, K: 3}
	batchURL := ts.URL + "/v1/query/knn-select-batch"

	first := queryURL(t, batchURL, batchReq)
	if first.Stats.CacheMisses != 2 || first.Stats.CacheHits != 0 {
		t.Fatalf("first: hits=%d misses=%d", first.Stats.CacheHits, first.Stats.CacheMisses)
	}
	second := queryURL(t, batchURL, batchReq)
	if second.Stats.CacheHits != 2 || second.Stats.CacheMisses != 0 {
		t.Fatalf("second: hits=%d misses=%d", second.Stats.CacheHits, second.Stats.CacheMisses)
	}
	if !reflect.DeepEqual(second.Batches, first.Batches) {
		t.Fatal("cache hit diverges from computed result")
	}

	// Mutate through the route: a point exactly on the focal must displace
	// the previous 3-NN answer.
	ins := mutate(t, ts.URL+"/v1/data/insert", &server.InsertRequest{Dataset: "trips",
		Points: []server.PointArg{{X: 321, Y: 321}}})

	third := queryURL(t, batchURL, batchReq)
	if third.Stats.CacheMisses != 2 || third.Stats.CacheHits != 0 {
		t.Fatalf("post-mutation: hits=%d misses=%d (stale entry served?)",
			third.Stats.CacheHits, third.Stats.CacheMisses)
	}
	if reflect.DeepEqual(third.Batches, first.Batches) {
		t.Fatal("post-mutation batch identical to pre-mutation batch")
	}
	if got := third.Batches[0][0]; got != (server.PointRow{ID: ins.IDs[0], X: 321, Y: 321}) {
		t.Fatalf("nearest neighbor after insert = %+v, want the inserted point", got)
	}

	// Fourth request: the post-mutation result is itself cached.
	fourth := queryURL(t, batchURL, batchReq)
	if fourth.Stats.CacheHits != 2 || !reflect.DeepEqual(fourth.Batches, third.Batches) {
		t.Fatalf("fourth: hits=%d", fourth.Stats.CacheHits)
	}

	// /metrics agrees: served epoch matches the engine's, the delta holds
	// the inserted point, the mutation was counted, and the lifetime cache
	// counters add up (4 misses, 4 hits across the four requests).
	m := metricsOf(t, ts.URL)
	dm, ok := m.Datasets["trips"]
	if !ok {
		t.Fatal("no trips dataset in /metrics")
	}
	if dm.Epoch != rel.Epoch() || dm.Epoch != ins.Epoch {
		t.Fatalf("metrics epoch %d, engine %d, mutation response %d", dm.Epoch, rel.Epoch(), ins.Epoch)
	}
	if dm.Delta == nil {
		t.Fatal("no delta stats for a mutable dataset")
	}
	if dm.Delta.DeltaLive != 1 || dm.Delta.Mutations != 1 || dm.Delta.Compactions != 0 {
		t.Fatalf("delta residency: %+v", dm.Delta)
	}
	if dm.Points != 501 || dm.Delta.Live != 501 {
		t.Fatalf("points=%d delta.live=%d, want 501", dm.Points, dm.Delta.Live)
	}
	if dm.CacheHits != 4 || dm.CacheMisses != 4 {
		t.Fatalf("lifetime cache counters: hits=%d misses=%d, want 4/4", dm.CacheHits, dm.CacheMisses)
	}
	if rm := m.Routes["data-insert"]; rm.Requests != 1 || rm.OK != 1 {
		t.Fatalf("data-insert route counters: %+v", rm)
	}

	// Compaction merges the delta without bumping the epoch: cached
	// post-mutation results stay valid (the live set did not change).
	if err := rel.Compact(); err != nil {
		t.Fatal(err)
	}
	fifth := queryURL(t, batchURL, batchReq)
	if fifth.Stats.CacheHits != 2 || !reflect.DeepEqual(fifth.Batches, third.Batches) {
		t.Fatalf("post-compact: hits=%d (compaction must not invalidate)", fifth.Stats.CacheHits)
	}
	m = metricsOf(t, ts.URL)
	dm = m.Datasets["trips"]
	if dm.Delta.DeltaLive != 0 || dm.Delta.Tombstones != 0 || dm.Delta.Compactions != 1 {
		t.Fatalf("post-compact delta residency: %+v", dm.Delta)
	}
	if dm.Epoch != ins.Epoch {
		t.Fatalf("compaction bumped the served epoch: %d -> %d", ins.Epoch, dm.Epoch)
	}
}

// TestMutationRouteList keeps the Handler doc's route list in sync: both
// data routes exist and reject GET.
func TestMutationRouteList(t *testing.T) {
	ts, _ := mutableServer(t)
	for _, route := range []string{"/v1/data/insert", "/v1/data/remove"} {
		resp, err := http.Get(ts.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", route, resp.StatusCode)
		}
		resp, err = http.Post(ts.URL+route, "application/json", strings.NewReader("{"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s with truncated JSON: status %d, want 400", route, resp.StatusCode)
		}
	}
}
