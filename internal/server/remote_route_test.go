package server_test

// Remote datasets behind the serving front-end: a coordinator Server holding
// a *twoknn.RemoteRelation must answer byte-identically to the same points
// served as a single relation, surface the transport envelope on /metrics,
// and map an exhausted replica set to 503 + Retry-After (honoring the
// per-dataset retry_after_ms override). Fault-arming tests never run in
// parallel: the injector is process-global.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	twoknn "repro"
	"repro/internal/fault"
	"repro/internal/server"
)

// remoteMesh is a 2-shard × 2-replica shard fleet plus a coordinator server
// that registers it as "mesh" next to a single-relation oracle "oracle".
type remoteMesh struct {
	srv       *server.Server
	ts        *httptest.Server
	endpoints [][]string // per shard, per replica
}

func newRemoteMesh(t testing.TB, cfg server.Config, dopts server.DatasetOptions) *remoteMesh {
	t.Helper()
	outer, _, _ := testPoints(t)

	const shards, replicas = 2, 2
	endpoints := make([][]string, shards)
	for s := 0; s < shards; s++ {
		h, err := twoknn.NewShardHandler("mesh", outer, s, shards, twoknn.WithBlockCapacity(16))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < replicas; r++ {
			ep := httptest.NewServer(h)
			t.Cleanup(ep.Close)
			endpoints[s] = append(endpoints[s], ep.URL)
		}
	}

	rcfg := &twoknn.RemoteConfig{
		ProbeTimeout:    2 * time.Second,
		RetryBackoff:    time.Millisecond,
		BreakerCooldown: 50 * time.Millisecond,
	}
	rr, err := twoknn.DialRemote(context.Background(), "mesh", endpoints, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := twoknn.NewRelation("oracle", outer)
	if err != nil {
		t.Fatal(err)
	}

	m := &remoteMesh{srv: server.New(cfg), endpoints: endpoints}
	if err := m.srv.RegisterWithOptions("mesh", rr, dopts); err != nil {
		t.Fatal(err)
	}
	if err := m.srv.Register("oracle", oracle); err != nil {
		t.Fatal(err)
	}
	m.ts = httptest.NewServer(m.srv.Handler())
	t.Cleanup(m.ts.Close)
	return m
}

func (m *remoteMesh) metrics(t testing.TB) server.MetricsResponse {
	t.Helper()
	resp, err := http.Get(m.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mx server.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mx); err != nil {
		t.Fatal(err)
	}
	return mx
}

// TestRemoteDatasetDifferential holds the served remote dataset
// byte-identical to the single-relation oracle on the same points, across a
// select, a self-join and a batch.
func TestRemoteDatasetDifferential(t *testing.T) {
	m := newRemoteMesh(t, server.Config{}, server.DatasetOptions{})

	query := func(route string, req server.Request) server.QueryResponse {
		t.Helper()
		res := send(t, m.ts, route, req, nil)
		if res.status != http.StatusOK {
			t.Fatalf("POST %s: status %d, body %s", route, res.status, res.body)
		}
		var out server.QueryResponse
		if err := json.Unmarshal(res.body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	for _, k := range []int{1, 5, 17} {
		got := query("knn-select", &server.KNNSelectRequest{Dataset: "mesh", F: focal, K: k})
		want := query("knn-select", &server.KNNSelectRequest{Dataset: "oracle", F: focal, K: k})
		diffRows(t, got.Points, want.Points, got.Count)
	}

	got := query("knn-join", &server.KNNJoinRequest{Outer: "mesh", Inner: "mesh", K: 2})
	want := query("knn-join", &server.KNNJoinRequest{Outer: "oracle", Inner: "oracle", K: 2})
	diffRows(t, got.Pairs, want.Pairs, got.Count)

	gb := query("knn-select-batch", &server.KNNSelectBatchRequest{
		Dataset: "mesh", Focals: []server.PointArg{focal, focal2}, K: 4})
	wb := query("knn-select-batch", &server.KNNSelectBatchRequest{
		Dataset: "oracle", Focals: []server.PointArg{focal, focal2}, K: 4})
	if canonical(t, gb.Batches) != canonical(t, wb.Batches) {
		t.Errorf("batch route diverges:\nremote: %v\noracle: %v", gb.Batches, wb.Batches)
	}

	mx := m.metrics(t)
	dm, ok := mx.Datasets["mesh"]
	if !ok {
		t.Fatal("no mesh dataset in /metrics")
	}
	if dm.Shards != 2 || len(dm.Remote) != 2 {
		t.Errorf("remote metrics: shards=%d remote=%d entries", dm.Shards, len(dm.Remote))
	}
	var attempts int64
	for _, sh := range dm.Remote {
		for _, ep := range sh.Endpoints {
			attempts += ep.Attempts
		}
	}
	if attempts == 0 {
		t.Error("remote envelope recorded no endpoint attempts")
	}
	if dm.Stats.PointsCompared == 0 {
		t.Error("wire-reported shard stats did not fold into the dataset totals")
	}
}

// TestRemoteDatasetUnavailable503 kills every replica of shard 0 and
// requires the coordinator to fail closed: 503, code shard_unavailable, the
// dataset's retry_after_ms override on the Retry-After header, and the
// route's unavailable counter bumped — while the oracle dataset keeps
// serving 200s.
func TestRemoteDatasetUnavailable503(t *testing.T) {
	m := newRemoteMesh(t, server.Config{},
		server.DatasetOptions{RetryAfterMS: 7000})

	dead := map[string]bool{}
	for _, ep := range m.endpoints[0] {
		dead[ep] = true
	}
	fault.Arm(&fault.Injector{DropProbe: func(ep string) bool { return dead[ep] }})
	t.Cleanup(fault.Disarm)

	res := send(t, m.ts, "knn-select", &server.KNNSelectRequest{Dataset: "mesh", F: focal, K: 5}, nil)
	if res.status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, body %s", res.status, res.body)
	}
	if e := decodeError(t, res.body); e.Code != "shard_unavailable" {
		t.Errorf("error code %q", e.Code)
	}
	if ra := res.header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After %q, want the dataset's 7s override", ra)
	}

	if res := send(t, m.ts, "knn-select", &server.KNNSelectRequest{Dataset: "oracle", F: focal, K: 5}, nil); res.status != http.StatusOK {
		t.Errorf("oracle dataset degraded too: status %d", res.status)
	}

	mx := m.metrics(t)
	if rm := mx.Routes["knn-select"]; rm.Unavailable == 0 {
		t.Errorf("route metrics: %+v, want unavailable > 0", rm)
	}

	// With shard 0's replicas back, the dataset recovers (breaker cooldown
	// is 50ms; retries probe through half-open breakers).
	fault.Disarm()
	deadline := time.Now().Add(5 * time.Second)
	for {
		res := send(t, m.ts, "knn-select", &server.KNNSelectRequest{Dataset: "mesh", F: focal, K: 5}, nil)
		if res.status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dataset never recovered; last status %d body %s", res.status, res.body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRemoteDatasetFailoverKeepsServing drops only the preferred replica of
// each shard: answers must stay 200 and exact, with failovers surfacing in
// the /metrics envelope.
func TestRemoteDatasetFailoverKeepsServing(t *testing.T) {
	m := newRemoteMesh(t, server.Config{}, server.DatasetOptions{})

	dead := map[string]bool{}
	for _, reps := range m.endpoints {
		dead[reps[0]] = true
	}
	fault.Arm(&fault.Injector{DropProbe: func(ep string) bool { return dead[ep] }})
	t.Cleanup(fault.Disarm)

	query := func(dataset string) server.QueryResponse {
		t.Helper()
		res := send(t, m.ts, "knn-select", &server.KNNSelectRequest{Dataset: dataset, F: focal, K: 9}, nil)
		if res.status != http.StatusOK {
			t.Fatalf("dataset %s: status %d, body %s", dataset, res.status, res.body)
		}
		var out server.QueryResponse
		if err := json.Unmarshal(res.body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	got, want := query("mesh"), query("oracle")
	diffRows(t, got.Points, want.Points, got.Count)

	var failovers int64
	for _, sh := range m.metrics(t).Datasets["mesh"].Remote {
		failovers += sh.Failovers
	}
	if failovers == 0 {
		t.Error("no failovers recorded despite dead primaries")
	}
}

// TestRegisterRemoteUnreachableShard: a remote dataset whose shard cannot
// hand over its points fails the registration, naming the shard, instead
// of serving rows with ID -1 — its epoch never moves, so a table built
// without them would never be rebuilt.
func TestRegisterRemoteUnreachableShard(t *testing.T) {
	outer, _, _ := testPoints(t)
	const shards = 2
	endpoints := make([][]string, shards)
	servers := make([]*httptest.Server, shards)
	for s := 0; s < shards; s++ {
		h, err := twoknn.NewShardHandler("mesh", outer, s, shards, twoknn.WithBlockCapacity(16))
		if err != nil {
			t.Fatal(err)
		}
		servers[s] = httptest.NewServer(h)
		t.Cleanup(servers[s].Close)
		endpoints[s] = []string{servers[s].URL}
	}
	rr, err := twoknn.DialRemote(context.Background(), "mesh", endpoints, &twoknn.RemoteConfig{
		ProbeTimeout: time.Second, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	servers[1].Close()

	err = server.New(server.Config{}).Register("mesh", rr)
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("Register over an unreachable shard: %v, want an error naming shard 1", err)
	}
}

// TestPerDatasetTimeouts covers the budget rule end to end: a dataset's
// max_timeout_ms caps even an explicit request timeout (504), its
// timeout_ms applies when the request carries none, and an uncapped dataset
// still answers under the server default.
func TestPerDatasetTimeouts(t *testing.T) {
	outer, _, _ := testPoints(t)
	mk := func(name string) *twoknn.Relation {
		rel, err := twoknn.NewRelation(name, outer, twoknn.WithBlockCapacity(16))
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	srv := server.New(server.Config{DefaultTimeout: 10 * time.Second})
	if err := srv.RegisterWithOptions("capped", mk("capped"), server.DatasetOptions{MaxTimeoutMS: 80}); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterWithOptions("eager", mk("eager"), server.DatasetOptions{DefaultTimeoutMS: 80}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("plain", mk("plain")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Every block scan sleeps, so any query outlasts an 80ms budget but
	// finishes well inside the 10s server default.
	fault.Arm(&fault.Injector{BlockScan: func(uint64) { time.Sleep(30 * time.Millisecond) }})
	t.Cleanup(fault.Disarm)

	req := func(dataset string, timeoutMS int64) wireResult {
		r := &server.KNNSelectRequest{Dataset: dataset, F: focal, K: 5}
		r.TimeoutMS = timeoutMS
		return send(t, ts, "knn-select", r, nil)
	}

	if res := req("capped", 60_000); res.status != http.StatusGatewayTimeout {
		t.Errorf("capped dataset ignored max_timeout_ms: status %d, body %s", res.status, res.body)
	}
	if res := req("eager", 0); res.status != http.StatusGatewayTimeout {
		t.Errorf("dataset default timeout not applied: status %d, body %s", res.status, res.body)
	}
	if res := req("eager", 60_000); res.status != http.StatusOK {
		t.Errorf("request timeout should override an uncapped dataset default: status %d, body %s", res.status, res.body)
	}
	if res := req("plain", 0); res.status != http.StatusOK {
		t.Errorf("uncapped dataset under server default: status %d, body %s", res.status, res.body)
	}
}
