package server_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/server"
	"repro/internal/testutil"
)

// TestRouteAllocs pins the per-request allocations of the served route path
// — decode, resolve, admit, budget, evaluate, render, encode — driven through
// Handler() in process, so no route pays for the route table or lifecycle
// it shares with the others. The batch request repeats its focals, so it
// measures the cache-hit path every run after the first. Each bound is the
// count measured with the collector paused (go1.24, linux/amd64), no more
// than the route cost with a dedicated handler of its own: the shared table
// and lifecycle must not add to it.
func TestRouteAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates")
	}
	reg := newRegistry(t, server.Config{})
	h := reg.srv.Handler()
	f := server.PointArg{X: 5000, Y: 5000}
	for _, tc := range []struct {
		route string
		req   server.Request
		max   float64
	}{
		{"knn-select", &server.KNNSelectRequest{Dataset: "outer-single", F: f, K: 5}, 55},
		{"select-outer-join", &server.SelectOuterJoinRequest{Outer: "outer-single", Inner: "inner-single", F: f, KSel: 3, KJoin: 2}, 69},
		{"knn-select-batch", &server.KNNSelectBatchRequest{Dataset: "outer-single",
			Focals: []server.PointArg{f, {X: 1200, Y: 8800}}, K: 5}, 55},
	} {
		body, err := server.EncodeRequest(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		serve := func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query/"+tc.route, bytes.NewReader(body)))
			if w.Code != http.StatusOK {
				t.Fatalf("%s: status %d, body %s", tc.route, w.Code, w.Body)
			}
		}
		serve() // warm the render tables and the batch cache
		if got := testutil.AllocsPerRun(t, 100, serve); got > tc.max {
			t.Errorf("%s: %v allocs/op, want ≤ %v", tc.route, got, tc.max)
		}
	}
}
