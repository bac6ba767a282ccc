package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/locality"
	"repro/internal/shard"
	"repro/internal/stats"
)

// Tests of the focal group on the wire: a group's answer is its focals'
// one-focal answers laid end to end, the one-focal bodies are what they were
// before the protocol knew groups, and everything malformed — in either
// direction — is refused where it enters.

func groupFocals(n int, seed int64) ([]geom.Point, []float64) {
	rng := rand.New(rand.NewSource(seed))
	focals := make([]geom.Point, n)
	thresholds := make([]float64, n)
	for i := range focals {
		focals[i] = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		thresholds[i] = rng.Float64() * 4000
	}
	return focals, thresholds
}

// TestProbeGroupMatchesSingles holds a group's spans, counts and summed
// stats equal to the same focals asked one request at a time, for all three
// ops, over the loopback and over real HTTP — and, on the HTTP side, equal
// to the in-process searcher bit for bit.
func TestProbeGroupMatchesSingles(t *testing.T) {
	rel := testRelation(t, testPoints(700, 21))
	srv := NewShardServer(rel, ShardServerConfig{Name: "grp", Shard: 0, Shards: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	h := rel.Acquire()
	defer h.Release()

	const k = 7
	focals, thresholds := groupFocals(37, 22)
	for name, tr := range map[string]ShardTransport{"loopback": NewLoopback(srv, ""), "http": NewHTTPTransport(ts.URL, nil)} {
		t.Run(name, func(t *testing.T) {
			m, err := NewMember(context.Background(), 0, []ShardTransport{tr}, fastOpts())
			if err != nil {
				t.Fatal(err)
			}
			p, _ := m.AcquireCtx(context.Background())
			gp := p.(shard.GroupProber)

			for _, within := range []bool{false, true} {
				var thr []float64
				if within {
					thr = thresholds
				}
				group := shard.GroupAnswer{Offs: []int{0}}
				var groupStats, singleStats stats.Counters
				if err := gp.ProbeGroup(context.Background(), focals, k, thr, &group, &groupStats); err != nil {
					t.Fatal(err)
				}
				if len(group.Offs) != len(focals)+1 {
					t.Fatalf("within=%v: %d spans for %d focals", within, len(group.Offs)-1, len(focals))
				}
				for i, f := range focals {
					single := shard.GroupAnswer{Offs: []int{0}}
					var one []float64
					if within {
						one = thr[i : i+1]
					}
					if err := gp.ProbeGroup(context.Background(), focals[i:i+1], k, one, &single, &singleStats); err != nil {
						t.Fatal(err)
					}
					var want *locality.Neighborhood
					if within {
						want = h.S.NeighborhoodWithinSq(f, k, thr[i], nil)
					} else {
						want = h.S.Neighborhood(f, k, nil)
					}
					lo, hi := group.Offs[i], group.Offs[i+1]
					if !reflect.DeepEqual(group.Points[lo:hi], single.Points) || !reflect.DeepEqual(group.Dists[lo:hi], single.Dists) {
						t.Fatalf("within=%v focal %d: group span differs from the one-focal answer", within, i)
					}
					if !reflect.DeepEqual(append([]geom.Point{}, want.Points...), append([]geom.Point{}, single.Points...)) ||
						!reflect.DeepEqual(append([]float64{}, want.Dists...), append([]float64{}, single.Dists...)) {
						t.Fatalf("within=%v focal %d: wire answer differs from the searcher's", within, i)
					}
				}
				if g, s := groupStats.Snapshot(), singleStats.Snapshot(); g != s || g.Neighborhoods != int64(len(focals)) {
					t.Fatalf("within=%v: group stats %+v, singles sum to %+v", within, g, s)
				}
			}

			var group shard.GroupAnswer
			if err := gp.CountGroup(context.Background(), focals, k, thresholds, &group, nil); err != nil {
				t.Fatal(err)
			}
			if len(group.Counts) != len(focals) {
				t.Fatalf("%d counts for %d focals", len(group.Counts), len(focals))
			}
			for i, f := range focals {
				if want := h.S.CountStrictlyCloser(f, k, thresholds[i], nil); group.Counts[i] != want {
					t.Fatalf("focal %d: group count %d, searcher %d", i, group.Counts[i], want)
				}
			}
		})
	}
}

// TestProbeGroupSplitsAtCap sends a unit larger than the cap: it goes out as
// consecutive requests of at most MaxGroupFocals, never two at once, and the
// spans come back in focal order.
func TestProbeGroupSplitsAtCap(t *testing.T) {
	rel := testRelation(t, testPoints(300, 23))
	srv := NewShardServer(rel, ShardServerConfig{Name: "cap"})
	sizes := &sizeRecorder{ShardTransport: NewLoopback(srv, "")}
	m, err := NewMember(context.Background(), 0, []ShardTransport{sizes}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	p, _ := m.AcquireCtx(context.Background())
	focals, _ := groupFocals(2*MaxGroupFocals+5, 24)
	ans := shard.GroupAnswer{Offs: []int{0}}
	if err := p.(shard.GroupProber).ProbeGroup(context.Background(), focals, 3, nil, &ans, nil); err != nil {
		t.Fatal(err)
	}
	if want := []int{MaxGroupFocals, MaxGroupFocals, 5}; !reflect.DeepEqual(sizes.groups, want) {
		t.Fatalf("request sizes %v, want %v", sizes.groups, want)
	}
	if sizes.overlapped {
		t.Fatal("two requests of one unit were in flight to one shard at once")
	}
	h := rel.Acquire()
	defer h.Release()
	for _, i := range []int{0, MaxGroupFocals - 1, MaxGroupFocals, 2*MaxGroupFocals + 4} {
		want := h.S.Neighborhood(focals[i], 3, nil)
		if got := ans.Points[ans.Offs[i]:ans.Offs[i+1]]; !reflect.DeepEqual(got, want.Points) {
			t.Fatalf("focal %d: span out of order across the split", i)
		}
	}
}

// sizeRecorder records each probe request's group size, and whether two
// ever overlapped. Single-caller: the test drives one prober.
type sizeRecorder struct {
	ShardTransport
	groups     []int
	inFlight   bool
	overlapped bool
}

func (r *sizeRecorder) Probe(ctx context.Context, op Op, req *ProbeRequest, resp *ProbeResponse) error {
	if r.inFlight {
		r.overlapped = true
	}
	r.inFlight = true
	defer func() { r.inFlight = false }()
	r.groups = append(r.groups, req.focals())
	return r.ShardTransport.Probe(ctx, op, req, resp)
}

// TestGroupRequestRejected: an oversized group, ragged focal arrays and a
// non-positive k are answered 400 — fatal to the envelope, so the one
// attempt is the only one.
func TestGroupRequestRejected(t *testing.T) {
	rel := testRelation(t, testPoints(100, 25))
	srv := NewShardServer(rel, ShardServerConfig{Name: "bad"})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	big := make([]float64, MaxGroupFocals)
	cases := map[string]struct {
		op  Op
		req ProbeRequest
	}{
		"over-cap":          {OpNeighborhood, ProbeRequest{K: 1, Xs: big, Ys: big}},
		"ragged-ys":         {OpNeighborhood, ProbeRequest{K: 1, Xs: []float64{1, 2}, Ys: []float64{1}}},
		"ragged-thresholds": {OpNeighborhood, ProbeRequest{K: 1, Xs: []float64{1, 2}, Ys: []float64{1, 2}, ThresholdsSq: []float64{1}}},
		"within-without":    {OpWithin, ProbeRequest{K: 1, Xs: []float64{1}, Ys: []float64{1}}},
		"count-without":     {OpCount, ProbeRequest{K: 1, Xs: []float64{1}, Ys: []float64{1}}},
		"zero-k":            {OpNeighborhood, ProbeRequest{K: 0}},
		"negative-k-group":  {OpCount, ProbeRequest{K: -3, Xs: []float64{1}, Ys: []float64{1}, ThresholdsSq: []float64{1}}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			for _, tr := range []ShardTransport{NewLoopback(srv, ""), NewHTTPTransport(ts.URL, nil)} {
				rs := NewReplicaSet(0, []ShardTransport{tr}, fastOpts())
				_, err := rs.Probe(context.Background(), tc.op, &tc.req)
				if err == nil || isTransient(err) {
					t.Fatalf("%s: err = %v, want a fatal error", tr.Endpoint(), err)
				}
				if ep := rs.NetStats().Endpoints[0]; ep.Attempts != 1 || ep.Retries != 0 {
					t.Fatalf("%s: a malformed group was retried: %+v", tr.Endpoint(), ep)
				}
			}
			body, _ := json.Marshal(&tc.req)
			res, err := http.Post(ts.URL+pathPrefix+"/"+tc.op.String(), "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			res.Body.Close()
			if res.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", res.StatusCode)
			}
		})
	}
}

// TestOneFocalWireUnchanged pins the one-focal encoding: the request a
// coordinator sends for a single focal and the body a shard answers it with
// carry no group fields, and the response carries no stable IDs.
func TestOneFocalWireUnchanged(t *testing.T) {
	rel := testRelation(t, testPoints(200, 26))
	srv := NewShardServer(rel, ShardServerConfig{Name: "one"})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// What the coordinator's prober puts on the wire for one focal.
	var sent []byte
	spy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/neighborhood-within") {
			sent, _ = io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(sent))
		}
		srv.ServeHTTP(w, r)
	}))
	defer spy.Close()
	m, err := NewMember(context.Background(), 0, []ShardTransport{NewHTTPTransport(spy.URL, nil)}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	p, _ := m.AcquireCtx(context.Background())
	ans := shard.GroupAnswer{Offs: []int{0}}
	if err := p.(shard.GroupProber).ProbeGroup(context.Background(), []geom.Point{{X: 500, Y: 500}}, 3, []float64{2500}, &ans, nil); err != nil {
		t.Fatal(err)
	}
	if want := `{"x":500,"y":500,"k":3,"threshold_sq":2500}`; string(sent) != want {
		t.Fatalf("one-focal request body %s, want %s", sent, want)
	}

	// What a shard answers to yesterday's bodies.
	post := func(route, body string) map[string]json.RawMessage {
		t.Helper()
		res, err := http.Post(ts.URL+pathPrefix+"/"+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", route, res.StatusCode)
		}
		var fields map[string]json.RawMessage
		if err := json.NewDecoder(res.Body).Decode(&fields); err != nil {
			t.Fatal(err)
		}
		return fields
	}
	keys := func(m map[string]json.RawMessage) string {
		var ks []string
		for _, k := range []string{"ids", "xs", "ys", "d_sqs", "offs", "count", "counts", "stats"} {
			if _, ok := m[k]; ok {
				ks = append(ks, k)
			}
		}
		return strings.Join(ks, ",")
	}
	if got := keys(post("neighborhood", `{"x":500,"y":500,"k":3}`)); got != "xs,ys,d_sqs,stats" {
		t.Fatalf("one-focal neighborhood response fields: %s", got)
	}
	if got := keys(post("neighborhood-within", `{"x":500,"y":500,"k":3,"threshold_sq":2500}`)); got != "xs,ys,d_sqs,stats" {
		t.Fatalf("one-focal within response fields: %s", got)
	}
	if got := keys(post("count-closer", `{"x":500,"y":500,"k":3,"threshold_sq":250000}`)); got != "count,stats" {
		t.Fatalf("one-focal count response fields: %s", got)
	}
}

// TestProbeResponseValidate walks the structural defects a truncated or
// shuffled group response can have; each must be refused.
func TestProbeResponseValidate(t *testing.T) {
	ok := func() *ProbeResponse {
		return &ProbeResponse{
			Xs: []float64{1, 2, 3}, Ys: []float64{1, 2, 3}, DSqs: []float64{1, 2, 3},
			Offs: []int{0, 2, 2, 3},
		}
	}
	if err := ok().validate(OpNeighborhood, 3, 2); err != nil {
		t.Fatalf("well-formed group refused: %v", err)
	}
	if err := (&ProbeResponse{Counts: []int{0, 4, 1}}).validate(OpCount, 3, 4); err != nil {
		t.Fatalf("well-formed counts refused: %v", err)
	}
	bad := map[string]func(r *ProbeResponse){
		"ragged":            func(r *ProbeResponse) { r.Ys = r.Ys[:2] },
		"offs-short":        func(r *ProbeResponse) { r.Offs = r.Offs[:3] },
		"offs-long":         func(r *ProbeResponse) { r.Offs = append(r.Offs, 3) },
		"offs-missing":      func(r *ProbeResponse) { r.Offs = nil },
		"offs-start":        func(r *ProbeResponse) { r.Offs[0] = 1 },
		"offs-end":          func(r *ProbeResponse) { r.Offs[3] = 2 },
		"offs-decreasing":   func(r *ProbeResponse) { r.Offs[1], r.Offs[2] = 2, 1 },
		"offs-out-of-range": func(r *ProbeResponse) { r.Offs[1], r.Offs[2] = 9, 9 },
		"span-over-k":       func(r *ProbeResponse) { r.Offs[1], r.Offs[2] = 3, 3 },
		"negative-count":    func(r *ProbeResponse) { r.Count = -1 },
	}
	for name, corrupt := range bad {
		r := ok()
		corrupt(r)
		if err := r.validate(OpNeighborhood, 3, 2); err == nil {
			t.Errorf("%s: accepted %+v", name, r)
		}
	}
	one := &ProbeResponse{Xs: []float64{1, 2}, Ys: []float64{1, 2}, DSqs: []float64{1, 2}}
	if err := one.validate(OpNeighborhood, 1, 2); err != nil {
		t.Fatalf("well-formed one-focal response refused: %v", err)
	}
	if err := one.validate(OpNeighborhood, 1, 1); err == nil {
		t.Error("one-focal response with more than k candidates accepted")
	}
	one.Offs = []int{0, 2}
	if err := one.validate(OpNeighborhood, 1, 2); err == nil {
		t.Error("one-focal response with offsets accepted")
	}
	for name, r := range map[string]*ProbeResponse{
		"counts-short":    {Counts: []int{1, 2}},
		"counts-negative": {Counts: []int{1, -2, 3}},
		"counts-missing":  {Count: 2},
	} {
		if err := r.validate(OpCount, 3, 4); err == nil {
			t.Errorf("%s: accepted %+v", name, r)
		}
	}
	if err := (&ProbeResponse{Counts: []int{1}}).validate(OpCount, 1, 4); err == nil {
		t.Error("one-focal count response with counts accepted")
	}
}

// TestCorruptGroupIsRetried corrupts the first response of every shape a
// group answer can take — candidates, all-empty spans, counts — and requires
// the validator to catch it, the envelope to retry, and the answer to be the
// uncorrupted one.
func TestCorruptGroupIsRetried(t *testing.T) {
	rel := testRelation(t, testPoints(200, 27))
	srv := NewShardServer(rel, ShardServerConfig{Name: "test"})
	far := []float64{1e9, 2e9}
	cases := map[string]struct {
		op  Op
		req ProbeRequest
	}{
		"candidates":  {OpNeighborhood, ProbeRequest{X: 9, Y: 9, K: 4, Xs: []float64{500, 900}, Ys: []float64{500, 100}}},
		"empty-spans": {OpWithin, ProbeRequest{X: 1e9, Y: 1e9, K: 4, ThresholdSq: 1, Xs: far, Ys: far, ThresholdsSq: []float64{1, 1}}},
		"counts":      {OpCount, ProbeRequest{X: 9, Y: 9, K: 4, ThresholdSq: 1e4, Xs: far, Ys: far, ThresholdsSq: []float64{1, 1}}},
		"one-empty":   {OpWithin, ProbeRequest{X: 1e9, Y: 1e9, K: 4, ThresholdSq: 1}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			rs := NewReplicaSet(0, []ShardTransport{NewLoopback(srv, "loop://corrupt")}, fastOpts())
			want, err := rs.Probe(context.Background(), tc.op, &tc.req)
			if err != nil {
				t.Fatal(err)
			}
			fired := false
			fault.Arm(&fault.Injector{CorruptResponse: func(string) bool {
				first := !fired
				fired = true
				return first
			}})
			defer fault.Disarm()
			got, err := rs.Probe(context.Background(), tc.op, &tc.req)
			if err != nil {
				t.Fatalf("probe after one corrupted response: %v", err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("recovered answer differs:\n got %+v\nwant %+v", got, want)
			}
			if ep := rs.NetStats().Endpoints[0]; ep.Retries != 1 {
				t.Fatalf("corrupted response was not caught and retried once: %+v", ep)
			}
		})
	}
}

// FuzzProbeResponseValidate feeds validate arbitrary JSON in place of a
// shard's answer: it must never panic, and whatever it lets through must
// rebuild into the gather's answer without an out-of-range index — every
// focal's span (or count) addressable.
func FuzzProbeResponseValidate(f *testing.F) {
	f.Add([]byte(`{"xs":[1,2,3],"ys":[1,2,3],"d_sqs":[1,4,9],"offs":[0,2,2,3]}`), 3, 2, false)
	f.Fuzz(func(t *testing.T, body []byte, n, k int, count bool) {
		if n < 1 || n > 64 || k < 1 {
			return
		}
		var resp ProbeResponse
		if json.Unmarshal(body, &resp) != nil {
			return
		}
		ans := shard.GroupAnswer{Offs: []int{0}}
		if count {
			if resp.validate(OpCount, n, k) != nil {
				return
			}
			resp.appendCounts(n, &ans)
			if len(ans.Counts) != n {
				t.Fatalf("%d counts rebuilt for %d focals", len(ans.Counts), n)
			}
			return
		}
		if resp.validate(OpNeighborhood, n, k) != nil {
			return
		}
		resp.appendSpans(n, &ans)
		if len(ans.Offs) != n+1 {
			t.Fatalf("%d spans rebuilt for %d focals", len(ans.Offs)-1, n)
		}
		for i := 0; i < n; i++ {
			if span := ans.Points[ans.Offs[i]:ans.Offs[i+1]]; len(span) > k || len(ans.Dists[ans.Offs[i]:ans.Offs[i+1]]) != len(span) {
				t.Fatalf("focal %d: span of %d for k=%d", i, len(span), k)
			}
		}
	})
}
