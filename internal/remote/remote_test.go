package remote

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/index/grid"
	"repro/internal/locality"
	"repro/internal/shard"
	"repro/internal/stats"
)

var testBounds = geom.NewRect(0, 0, 1000, 1000)

func testPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	return pts
}

func testRelation(t *testing.T, pts []geom.Point) *core.Relation {
	t.Helper()
	ix, err := grid.New(pts, grid.Options{TargetPerCell: 16, Bounds: testBounds})
	if err != nil {
		t.Fatal(err)
	}
	return core.NewRelation(ix)
}

// fastOpts keeps envelope timing snappy for tests.
func fastOpts() Options {
	return Options{
		ProbeTimeout:     500 * time.Millisecond,
		MaxRetries:       2,
		RetryBackoff:     time.Millisecond,
		HedgeAfter:       20 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  100 * time.Millisecond,
	}
}

// fakeTransport scripts failures for envelope unit tests.
type fakeTransport struct {
	name     string
	inner    ShardTransport // delegate for successful calls
	failures atomic.Int64   // remaining scripted transient failures
	calls    atomic.Int64
	delay    time.Duration
}

func (f *fakeTransport) Endpoint() string { return f.name }

func (f *fakeTransport) step(ctx context.Context) error {
	f.calls.Add(1)
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return transientf("%s: %w", f.name, ctx.Err())
		}
	}
	if f.failures.Load() != 0 {
		f.failures.Add(-1)
		return transientf("%s: scripted failure", f.name)
	}
	return nil
}

func (f *fakeTransport) Probe(ctx context.Context, op Op, req *ProbeRequest, resp *ProbeResponse) error {
	if err := f.step(ctx); err != nil {
		return err
	}
	return f.inner.Probe(ctx, op, req, resp)
}

func (f *fakeTransport) Info(ctx context.Context) (*Info, error) {
	if err := f.step(ctx); err != nil {
		return nil, err
	}
	return f.inner.Info(ctx)
}

func (f *fakeTransport) Blocks(ctx context.Context) ([]BlockHeader, error) {
	if err := f.step(ctx); err != nil {
		return nil, err
	}
	return f.inner.Blocks(ctx)
}

func (f *fakeTransport) BlockPoints(ctx context.Context, block int) (*BlockPointsResponse, error) {
	if err := f.step(ctx); err != nil {
		return nil, err
	}
	return f.inner.BlockPoints(ctx, block)
}

// rebuild restores a one-focal response's neighborhood the way the gather
// does.
func rebuild(resp *ProbeResponse, q geom.Point) *locality.Neighborhood {
	ans := shard.GroupAnswer{Offs: []int{0}}
	resp.appendSpans(1, &ans)
	return &locality.Neighborhood{Center: q, Points: ans.Points, Dists: ans.Dists}
}

func TestBreakerLifecycle(t *testing.T) {
	b := newBreaker(3, 50*time.Millisecond)
	for i := 0; i < 3; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.onFailure()
	}
	if state, trips := b.snapshot(); state != breakerOpen || trips != 1 {
		t.Fatalf("after threshold failures: state=%v trips=%d", state, trips)
	}
	if b.allow() {
		t.Fatal("open breaker admitted a request inside cooldown")
	}
	time.Sleep(60 * time.Millisecond)
	if !b.allow() {
		t.Fatal("open breaker refused the probe-through after cooldown")
	}
	// Only one probe-through at a time.
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe-through")
	}
	b.onFailure()
	if state, trips := b.snapshot(); state != breakerOpen || trips != 2 {
		t.Fatalf("failed probe-through: state=%v trips=%d", state, trips)
	}
	time.Sleep(60 * time.Millisecond)
	if !b.allow() {
		t.Fatal("re-opened breaker refused its probe-through")
	}
	b.onSuccess()
	if state, _ := b.snapshot(); state != breakerClosed {
		t.Fatalf("successful probe-through left state %v", state)
	}
}

func TestLoopbackProbeMatchesLocal(t *testing.T) {
	pts := testPoints(500, 1)
	rel := testRelation(t, pts)
	srv := NewShardServer(rel, ShardServerConfig{Name: "test"})
	rs := NewReplicaSet(0, []ShardTransport{NewLoopback(srv, "")}, fastOpts())

	h := rel.Acquire()
	defer h.Release()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		q := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		k := 1 + rng.Intn(20)
		want := h.S.Neighborhood(q, k, nil)
		resp, err := rs.Probe(context.Background(), OpNeighborhood, &ProbeRequest{X: q.X, Y: q.Y, K: k})
		if err != nil {
			t.Fatalf("probe: %v", err)
		}
		rebuilt := rebuild(resp, q)
		if !reflect.DeepEqual(want.Points, rebuilt.Points) {
			t.Fatalf("trial %d: points differ", trial)
		}
		if !reflect.DeepEqual(want.Dists, rebuilt.Dists) {
			t.Fatalf("trial %d: dists differ (wire sqrt reconstruction not exact)", trial)
		}
	}
}

func TestRetryOnTransient(t *testing.T) {
	rel := testRelation(t, testPoints(200, 3))
	srv := NewShardServer(rel, ShardServerConfig{Name: "test"})
	fake := &fakeTransport{name: "fake://0", inner: NewLoopback(srv, "")}
	fake.failures.Store(2)
	rs := NewReplicaSet(0, []ShardTransport{fake}, fastOpts())

	resp, err := rs.Probe(context.Background(), OpNeighborhood, &ProbeRequest{X: 500, Y: 500, K: 5})
	if err != nil {
		t.Fatalf("probe should have succeeded after retries: %v", err)
	}
	if len(resp.Xs) != 5 {
		t.Fatalf("got %d candidates, want 5", len(resp.Xs))
	}
	ns := rs.NetStats()
	if ns.Endpoints[0].Retries != 2 {
		t.Fatalf("retries=%d, want 2", ns.Endpoints[0].Retries)
	}
	if ns.Endpoints[0].Successes != 1 {
		t.Fatalf("successes=%d, want 1", ns.Endpoints[0].Successes)
	}
}

func TestFailoverToReplica(t *testing.T) {
	rel := testRelation(t, testPoints(200, 4))
	srv := NewShardServer(rel, ShardServerConfig{Name: "test"})
	dead := &fakeTransport{name: "fake://dead", inner: NewLoopback(srv, "")}
	dead.failures.Store(-1) // fail forever
	live := NewLoopback(srv, "loop://live")
	opts := fastOpts()
	opts.MaxRetries = NoRetries
	rs := NewReplicaSet(0, []ShardTransport{dead, live}, opts)

	resp, err := rs.Probe(context.Background(), OpNeighborhood, &ProbeRequest{X: 500, Y: 500, K: 3})
	if err != nil {
		t.Fatalf("failover probe: %v", err)
	}
	if len(resp.Xs) != 3 {
		t.Fatalf("got %d candidates, want 3", len(resp.Xs))
	}
	ns := rs.NetStats()
	if ns.Failovers == 0 {
		t.Fatal("failover counter did not increment")
	}
}

func TestBreakerShedsAndRecovers(t *testing.T) {
	rel := testRelation(t, testPoints(200, 5))
	srv := NewShardServer(rel, ShardServerConfig{Name: "test"})
	flaky := &fakeTransport{name: "fake://flaky", inner: NewLoopback(srv, "")}
	flaky.failures.Store(-1)
	live := NewLoopback(srv, "loop://live")
	opts := fastOpts()
	opts.MaxRetries = NoRetries
	opts.HedgeAfter = NoHedging
	rs := NewReplicaSet(0, []ShardTransport{flaky, live}, opts)

	ctx := context.Background()
	req := &ProbeRequest{X: 100, Y: 100, K: 2}
	// Trip the first endpoint's breaker.
	for i := 0; i < 3; i++ {
		if _, err := rs.Probe(ctx, OpNeighborhood, req); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
	ns := rs.NetStats()
	if ns.Endpoints[0].BreakerTrips == 0 {
		t.Fatalf("first endpoint's breaker never tripped: %+v", ns.Endpoints[0])
	}
	// While open, the envelope prefers the healthy replica without even
	// attempting the tripped one.
	attemptsBefore := ns.Endpoints[0].Attempts
	if _, err := rs.Probe(ctx, OpNeighborhood, req); err != nil {
		t.Fatalf("probe with open breaker: %v", err)
	}
	ns = rs.NetStats()
	if ns.Endpoints[0].Attempts != attemptsBefore {
		t.Fatal("open breaker did not shed the dead endpoint")
	}
	// After cooldown, the probe-through finds the endpoint healthy again.
	flaky.failures.Store(0)
	time.Sleep(110 * time.Millisecond)
	if _, err := rs.Probe(ctx, OpNeighborhood, req); err != nil {
		t.Fatalf("probe-through: %v", err)
	}
	ns = rs.NetStats()
	if ns.Endpoints[0].Breaker != "closed" {
		t.Fatalf("breaker state after healthy probe-through: %s", ns.Endpoints[0].Breaker)
	}
}

func TestExhaustedReplicaSetIsUnavailable(t *testing.T) {
	rel := testRelation(t, testPoints(100, 6))
	srv := NewShardServer(rel, ShardServerConfig{Name: "test"})
	dead1 := &fakeTransport{name: "fake://d1", inner: NewLoopback(srv, "")}
	dead2 := &fakeTransport{name: "fake://d2", inner: NewLoopback(srv, "")}
	dead1.failures.Store(-1)
	dead2.failures.Store(-1)
	opts := fastOpts()
	opts.MaxRetries = NoRetries
	opts.HedgeAfter = NoHedging
	rs := NewReplicaSet(7, []ShardTransport{dead1, dead2}, opts)

	_, err := rs.Probe(context.Background(), OpNeighborhood, &ProbeRequest{X: 1, Y: 1, K: 1})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("exhausted set returned %v, want ErrUnavailable", err)
	}
	ns := rs.NetStats()
	if ns.Exhausted != 1 {
		t.Fatalf("exhausted=%d, want 1", ns.Exhausted)
	}
}

func TestHedgeWinsOverSlowPrimary(t *testing.T) {
	rel := testRelation(t, testPoints(200, 7))
	srv := NewShardServer(rel, ShardServerConfig{Name: "test"})
	slow := &fakeTransport{name: "fake://slow", inner: NewLoopback(srv, ""), delay: 300 * time.Millisecond}
	fast := NewLoopback(srv, "loop://fast")
	opts := fastOpts()
	opts.HedgeAfter = 10 * time.Millisecond
	rs := NewReplicaSet(0, []ShardTransport{slow, fast}, opts)

	start := time.Now()
	_, err := rs.Probe(context.Background(), OpNeighborhood, &ProbeRequest{X: 5, Y: 5, K: 1})
	if err != nil {
		t.Fatalf("hedged probe: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("hedge did not beat the slow primary: %v", elapsed)
	}
	ns := rs.NetStats()
	if ns.Endpoints[0].Hedges == 0 {
		t.Fatal("no hedge launched against the slow primary")
	}
	if ns.Endpoints[1].HedgeWins == 0 {
		t.Fatal("hedge win not recorded")
	}
}

func TestCorruptResponseIsRetried(t *testing.T) {
	rel := testRelation(t, testPoints(200, 8))
	srv := NewShardServer(rel, ShardServerConfig{Name: "test"})
	lb := NewLoopback(srv, "loop://corrupt")
	rs := NewReplicaSet(0, []ShardTransport{lb}, fastOpts())

	var fired atomic.Bool
	fault.Arm(&fault.Injector{CorruptResponse: func(ep string) bool {
		return ep == "loop://corrupt" && fired.CompareAndSwap(false, true)
	}})
	defer fault.Disarm()

	resp, err := rs.Probe(context.Background(), OpNeighborhood, &ProbeRequest{X: 9, Y: 9, K: 4})
	if err != nil {
		t.Fatalf("probe after one corrupted response: %v", err)
	}
	if err := resp.validate(OpNeighborhood, 1, 4); err != nil {
		t.Fatalf("final response invalid: %v", err)
	}
	ns := rs.NetStats()
	if ns.Endpoints[0].Retries == 0 {
		t.Fatal("corrupted response was not retried")
	}
}

func TestDropProbeFailsOver(t *testing.T) {
	rel := testRelation(t, testPoints(200, 9))
	srv := NewShardServer(rel, ShardServerConfig{Name: "test"})
	a := NewLoopback(srv, "loop://a")
	b := NewLoopback(srv, "loop://b")
	opts := fastOpts()
	opts.MaxRetries = NoRetries
	rs := NewReplicaSet(0, []ShardTransport{a, b}, opts)

	fault.DropEndpoint("loop://a")
	defer fault.Disarm()

	resp, err := rs.Probe(context.Background(), OpNeighborhood, &ProbeRequest{X: 50, Y: 50, K: 2})
	if err != nil {
		t.Fatalf("probe with dropped primary: %v", err)
	}
	if len(resp.Xs) != 2 {
		t.Fatalf("got %d candidates, want 2", len(resp.Xs))
	}
	ns := rs.NetStats()
	if ns.Failovers == 0 {
		t.Fatal("drop did not fail over")
	}
}

func TestHTTPTransportEndToEnd(t *testing.T) {
	pts := testPoints(400, 10)
	rel := testRelation(t, pts)
	srv := NewShardServer(rel, ShardServerConfig{Name: "http-test", Shard: 0, Shards: 1, Index: "grid"})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	tr := NewHTTPTransport(ts.URL, nil)
	ctx := context.Background()

	info, err := tr.Info(ctx)
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if info.Len != 400 || info.Name != "http-test" {
		t.Fatalf("info = %+v", info)
	}

	blocks, err := tr.Blocks(ctx)
	if err != nil {
		t.Fatalf("blocks: %v", err)
	}
	if len(blocks) != info.Blocks {
		t.Fatalf("blocks len %d, info says %d", len(blocks), info.Blocks)
	}
	total := 0
	for _, b := range blocks {
		total += b.Count
	}
	if total != 400 {
		t.Fatalf("block headers cover %d points", total)
	}

	bp, err := tr.BlockPoints(ctx, 0)
	if err != nil {
		t.Fatalf("block points: %v", err)
	}
	if len(bp.Xs) != blocks[0].Count {
		t.Fatalf("block 0 returned %d points, header says %d", len(bp.Xs), blocks[0].Count)
	}

	// Probe over real HTTP must reconstruct the exact local neighborhood —
	// the wire-exactness contract (shortest round-trip JSON floats,
	// Dists = Sqrt(dSq)).
	h := rel.Acquire()
	defer h.Release()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		q := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		k := 1 + rng.Intn(15)
		want := h.S.Neighborhood(q, k, nil)
		var resp ProbeResponse
		if err := tr.Probe(ctx, OpNeighborhood, &ProbeRequest{X: q.X, Y: q.Y, K: k}, &resp); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rebuilt := rebuild(&resp, q)
		if !reflect.DeepEqual(want.Points, rebuilt.Points) || !reflect.DeepEqual(want.Dists, rebuilt.Dists) {
			t.Fatalf("trial %d: HTTP round-trip not byte-identical", trial)
		}
	}

	// Unknown block index is a fatal (non-transient) protocol error.
	if _, err := tr.BlockPoints(ctx, 10_000); err == nil || isTransient(err) {
		t.Fatalf("out-of-range block: err=%v (should be fatal)", err)
	}
}

func TestDialValidatesLayout(t *testing.T) {
	rel := testRelation(t, testPoints(100, 12))
	srv := NewShardServer(rel, ShardServerConfig{Name: "test", Shard: 1, Shards: 3})
	lb := NewLoopback(srv, "")
	ctx := context.Background()

	// Dialing the shard at the wrong position fails.
	if _, err := Dial(ctx, [][]ShardTransport{{lb}, {lb}, {lb}}, fastOpts()); err == nil {
		t.Fatal("mis-positioned shard accepted")
	}
	// Dialing with the wrong total count fails.
	if _, err := Dial(ctx, [][]ShardTransport{{lb}, {lb}}, fastOpts()); err == nil {
		t.Fatal("wrong layout size accepted")
	}
}

func TestRemoteGroupMatchesLocal(t *testing.T) {
	pts := testPoints(600, 13)
	const nShards = 3
	stores := shard.Partition(pts, nShards, shard.PolicyHash)
	transports := make([][]ShardTransport, nShards)
	for s, st := range stores {
		ix, err := grid.NewFromStore(st, grid.Options{TargetPerCell: 16, Bounds: testBounds})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewShardServer(core.NewRelation(ix), ShardServerConfig{
			Name: "grp", Shard: s, Shards: nShards, Index: "grid",
		})
		transports[s] = []ShardTransport{NewLoopback(srv, fmt.Sprintf("loop://grp/%d", s))}
	}
	members, err := Dial(context.Background(), transports, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	counters := make([]*stats.Counters, nShards)
	for i := range counters {
		counters[i] = new(stats.Counters)
	}
	g := NewGroup(members, counters)

	want := testRelation(t, pts)
	h := want.Acquire()
	defer h.Release()
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 25; trial++ {
		q := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		k := 1 + rng.Intn(12)
		wantPts := shard.Select(context.Background(), shard.SingleGroup(want), q, k, nil)
		gotPts := shard.Select(context.Background(), g, q, k, nil)
		if !reflect.DeepEqual(wantPts, gotPts) {
			t.Fatalf("trial %d: remote group select differs", trial)
		}
	}
	// The wire stats folded into the coordinator-side counters.
	totalNbhd := int64(0)
	for _, c := range counters {
		totalNbhd += c.Snapshot().Neighborhoods
	}
	if totalNbhd == 0 {
		t.Fatal("wire-reported stats were not folded into group counters")
	}
}
