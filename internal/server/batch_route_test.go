package server_test

// End-to-end scenarios for POST /v1/query/knn-select-batch: the served batch
// is byte-identical per focal to the knn-select route's answers, repeated
// requests are served from the epoch-keyed result cache (hits visible in the
// response stats and /metrics), Invalidate() makes the cache miss again
// without changing answers, concurrent identical requests all get the same
// rows, and the error taxonomy matches the sequential route.

import (
	"encoding/json"
	"net/http"
	"reflect"
	"sync"
	"testing"

	twoknn "repro"
	"repro/internal/server"
)

// batchFocals mixes clustered, spread and duplicate focals, including one
// focal co-located with the shared test focal.
var batchFocals = []server.PointArg{
	{X: 5000, Y: 5000},
	{X: 5005, Y: 4995},
	{X: 1200, Y: 8800},
	{X: 5000, Y: 5000}, // duplicate of focal 0
	{X: -50, Y: 10100}, // out of bounds
}

func TestKNNSelectBatchRoute(t *testing.T) {
	reg := newRegistry(t, server.Config{})
	for _, b := range backings {
		name := "outer-" + b.label
		src := reg.sources[name]
		t.Run(b.label, func(t *testing.T) {
			const k = 6
			resp := reg.query(t, "knn-select-batch", &server.KNNSelectBatchRequest{
				Dataset: name, Focals: batchFocals, K: k})
			if len(resp.Batches) != len(batchFocals) {
				t.Fatalf("%d batches for %d focals", len(resp.Batches), len(batchFocals))
			}
			total := 0
			for i, f := range batchFocals {
				pts, err := twoknn.KNNSelect(src, f.Point(), k)
				if err != nil {
					t.Fatal(err)
				}
				want := pointOracle(reg, name, pts)
				if !reflect.DeepEqual(resp.Batches[i], want) {
					t.Fatalf("focal %d diverges from the knn-select oracle:\nbatch  %v\noracle %v",
						i, resp.Batches[i], want)
				}
				total += len(want)
			}
			if resp.Count != total {
				t.Fatalf("count %d, total rows %d", resp.Count, total)
			}
			if resp.Stats.CacheMisses != int64(len(batchFocals)) || resp.Stats.CacheHits != 0 {
				t.Fatalf("first request: hits=%d misses=%d", resp.Stats.CacheHits, resp.Stats.CacheMisses)
			}

			// Identical repeat: served entirely from the cache, same rows.
			again := reg.query(t, "knn-select-batch", &server.KNNSelectBatchRequest{
				Dataset: name, Focals: batchFocals, K: k})
			if !reflect.DeepEqual(again.Batches, resp.Batches) || again.Count != resp.Count {
				t.Fatal("cached response diverges from the computed one")
			}
			if again.Stats.CacheHits != int64(len(batchFocals)) || again.Stats.CacheMisses != 0 {
				t.Fatalf("repeat request: hits=%d misses=%d", again.Stats.CacheHits, again.Stats.CacheMisses)
			}
			if again.Stats.Neighborhoods != 0 {
				t.Fatalf("repeat request ran %d neighborhood computations", again.Stats.Neighborhoods)
			}

			// Epoch bump: the cache misses again, answers stay identical.
			switch r := src.(type) {
			case *twoknn.Relation:
				r.Invalidate()
			case *twoknn.ShardedRelation:
				r.Invalidate()
			}
			after := reg.query(t, "knn-select-batch", &server.KNNSelectBatchRequest{
				Dataset: name, Focals: batchFocals, K: k})
			if after.Stats.CacheMisses != int64(len(batchFocals)) {
				t.Fatalf("post-invalidation request: hits=%d misses=%d", after.Stats.CacheHits, after.Stats.CacheMisses)
			}
			if !reflect.DeepEqual(after.Batches, resp.Batches) {
				t.Fatal("post-invalidation response diverges")
			}
		})
	}
}

// TestBatchRouteExplainAndStats: EXPLAIN bypasses the cache so the rendered
// plan reflects a real evaluation.
func TestBatchRouteExplainAndStats(t *testing.T) {
	reg := newRegistry(t, server.Config{})
	req := &server.KNNSelectBatchRequest{Dataset: "outer-single", Focals: batchFocals, K: 4}
	reg.query(t, "knn-select-batch", req) // warm the cache

	req.Explain = true
	resp := reg.query(t, "knn-select-batch", req)
	if resp.Explain == "" {
		t.Fatal("explain requested but empty")
	}
	if resp.Stats.CacheHits != 0 || resp.Stats.Neighborhoods == 0 {
		t.Fatalf("explain must bypass the cache: hits=%d nbr=%d", resp.Stats.CacheHits, resp.Stats.Neighborhoods)
	}
}

// TestBatchRouteMetrics: the per-dataset cache counters surface on /metrics.
func TestBatchRouteMetrics(t *testing.T) {
	reg := newRegistry(t, server.Config{})
	req := &server.KNNSelectBatchRequest{Dataset: "inner-single", Focals: batchFocals, K: 3}
	reg.query(t, "knn-select-batch", req)
	reg.query(t, "knn-select-batch", req)

	resp, err := http.Get(reg.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m server.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	dm := m.Datasets["inner-single"]
	if dm.CacheMisses != int64(len(batchFocals)) || dm.CacheHits != int64(len(batchFocals)) {
		t.Fatalf("metrics cache counters: hits=%d misses=%d, want %d/%d",
			dm.CacheHits, dm.CacheMisses, len(batchFocals), len(batchFocals))
	}
	// 4 distinct focals resident (the duplicate collapses onto one key).
	if dm.CacheEntries != 4 {
		t.Fatalf("metrics cache_entries=%d, want 4", dm.CacheEntries)
	}
	if rm := m.Routes["knn-select-batch"]; rm.Requests != 2 || rm.OK != 2 {
		t.Fatalf("route counters: %+v", rm)
	}
}

// TestBatchRouteConcurrent hammers one identical request from many
// goroutines (exercising the cache under -race); every response must be 200
// with identical rows.
func TestBatchRouteConcurrent(t *testing.T) {
	reg := newRegistry(t, server.Config{})
	req := &server.KNNSelectBatchRequest{Dataset: "outer-hash3", Focals: batchFocals, K: 5}
	want := reg.query(t, "knn-select-batch", req).Batches

	const goroutines = 12
	responses := make([]server.QueryResponse, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			responses[g] = reg.query(t, "knn-select-batch", req)
		}(g)
	}
	wg.Wait()
	for g := range responses {
		if !reflect.DeepEqual(responses[g].Batches, want) {
			t.Fatalf("goroutine %d diverges", g)
		}
	}
}

// TestBatchRouteErrors: the sequential route's 400 taxonomy applies.
func TestBatchRouteErrors(t *testing.T) {
	reg := newRegistry(t, server.Config{})
	for _, tc := range []struct {
		name string
		req  server.KNNSelectBatchRequest
	}{
		{"unknown dataset", server.KNNSelectBatchRequest{Dataset: "nope", Focals: batchFocals, K: 3}},
		{"k=0", server.KNNSelectBatchRequest{Dataset: "outer-single", Focals: batchFocals, K: 0}},
	} {
		status, body := reg.post(t, "knn-select-batch", &tc.req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", tc.name, status, body)
		}
	}

	// Empty focal list is a valid empty batch, not an error.
	resp := reg.query(t, "knn-select-batch", &server.KNNSelectBatchRequest{Dataset: "outer-single", K: 3})
	if resp.Count != 0 || len(resp.Batches) != 0 {
		t.Fatalf("empty batch: %+v", resp)
	}
}
