package twoknn_test

// Tests of the wave: a query over a remote relation sends each shard one
// request per wave carrying the whole focal group, with every shard's
// request in flight at once. Round trips are pinned as counts (they are what
// a fleet query's latency is made of), connections are reused under
// fan-out, and every fault the single-probe battery injects is injected
// again with sibling requests in flight.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	twoknn "repro"
	"repro/internal/fault"
	"repro/internal/remote"
	"repro/internal/shard"
)

// roundTrips is the shared tally of a fleet of counting transports.
type roundTrips struct {
	mu       sync.Mutex
	requests int
	waves    int // times the fleet went from idle to busy
	inFlight int
	peak     int
	shards   []shardTrips
	focals   int // focals carried, summed over requests

	// abreast > 1 holds every request until abreast of them are in flight
	// (or rendezvousWait passes), group after group: a wave's requests then
	// overlap whatever the scheduler does, and a sequential sender shows as
	// a peak of one.
	abreast int
	waiting int
	gate    chan struct{}
}

type shardTrips struct{ requests, inFlight, peak int }

const rendezvousWait = 2 * time.Second

func (rt *roundTrips) reset(abreast int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.requests, rt.waves, rt.inFlight, rt.peak, rt.focals = 0, 0, 0, 0, 0
	clear(rt.shards)
	rt.abreast, rt.waiting, rt.gate = abreast, 0, make(chan struct{})
}

func (rt *roundTrips) enter(s int, req *remote.ProbeRequest) {
	rt.mu.Lock()
	if rt.inFlight == 0 {
		rt.waves++
	}
	rt.requests++
	rt.focals += 1 + len(req.Xs)
	rt.inFlight++
	rt.peak = max(rt.peak, rt.inFlight)
	sh := &rt.shards[s]
	sh.requests++
	sh.inFlight++
	sh.peak = max(sh.peak, sh.inFlight)
	var wait chan struct{}
	if rt.abreast > 1 {
		if rt.waiting++; rt.waiting == rt.abreast {
			close(rt.gate)
			rt.gate, rt.waiting = make(chan struct{}), 0
		} else {
			wait = rt.gate
		}
	}
	rt.mu.Unlock()
	if wait != nil {
		select {
		case <-wait:
		case <-time.After(rendezvousWait):
		}
	}
}

func (rt *roundTrips) leave(s int) {
	rt.mu.Lock()
	rt.inFlight--
	rt.shards[s].inFlight--
	rt.mu.Unlock()
}

// want asserts the tally of one query.
func (rt *roundTrips) want(t *testing.T, what string, requests, waves, peak int) {
	t.Helper()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.requests != requests || rt.waves != waves || rt.peak != peak {
		t.Errorf("%s: %d requests in %d waves with %d in flight, want %d in %d with %d",
			what, rt.requests, rt.waves, rt.peak, requests, waves, peak)
	}
	rt.oneAtATime(t, what)
}

// oneAtATime asserts that no shard ever had two requests in flight.
func (rt *roundTrips) oneAtATime(t *testing.T, what string) {
	t.Helper()
	for s, sh := range rt.shards {
		if sh.peak > 1 {
			t.Errorf("%s: shard %d had %d requests of one query in flight at once", what, s, sh.peak)
		}
	}
}

// countingTransport counts the probe requests of one shard into the tally.
type countingTransport struct {
	remote.ShardTransport
	shard int
	rt    *roundTrips
}

func (c *countingTransport) Probe(ctx context.Context, op remote.Op, req *remote.ProbeRequest, resp *remote.ProbeResponse) error {
	c.rt.enter(c.shard, req)
	defer c.rt.leave(c.shard)
	return c.ShardTransport.Probe(ctx, op, req, resp)
}

// loopbacks returns one named loopback transport per shard of the dataset.
func loopbacks(t *testing.T, name string, pts []twoknn.Point, shards int, policy twoknn.ShardPolicy) []remote.ShardTransport {
	t.Helper()
	out := make([]remote.ShardTransport, shards)
	for s, h := range shardHandlers(t, name, pts, shards, policy) {
		out[s] = remote.NewLoopback(h.(*remote.ShardServer), fmt.Sprintf("loop://%s/%d", name, s))
	}
	return out
}

// dialTransports dials one replica per shard with retries, hedging and
// breakers off: what a test injects is what the query sees.
func dialTransports(t *testing.T, name string, tps []remote.ShardTransport, cfg *twoknn.RemoteConfig) *twoknn.RemoteRelation {
	t.Helper()
	layout := make([][]remote.ShardTransport, len(tps))
	for s, tp := range tps {
		layout[s] = []remote.ShardTransport{tp}
	}
	rr, err := twoknn.DialRemoteTransports(context.Background(), name, layout, cfg)
	if err != nil {
		t.Fatalf("DialRemoteTransports(%s): %v", name, err)
	}
	return rr
}

// dialCounting dials the dataset over loopback shards behind counting
// transports.
func dialCounting(t *testing.T, name string, pts []twoknn.Point, shards int, policy twoknn.ShardPolicy) (*twoknn.RemoteRelation, *roundTrips, []remote.ShardTransport) {
	t.Helper()
	raw := loopbacks(t, name, pts, shards, policy)
	rt := &roundTrips{shards: make([]shardTrips, shards)}
	counted := make([]remote.ShardTransport, shards)
	for s, tp := range raw {
		counted[s] = &countingTransport{ShardTransport: tp, shard: s, rt: rt}
	}
	return dialTransports(t, name, counted, fastRemoteCfg()), rt, raw
}

// interiorFocals draws n focals from the middle of the data's extent:
// inside every hash shard's own MBR, so no shard waits for a second wave.
func interiorFocals(n int, seed int64) []twoknn.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]twoknn.Point, n)
	for i := range out {
		out[i] = twoknn.Point{X: 400 + 200*rng.Float64(), Y: 400 + 200*rng.Float64()}
	}
	return out
}

// TestRemoteRoundTripCounts pins the round-trip budget of every benchmark
// shape on a hash-3 fleet — the quantities the benchmark reports as
// remote.probes_per_* — and that what comes back is still the exact answer.
func TestRemoteRoundTripCounts(t *testing.T) {
	mesh := randomPoints(3000, 71)
	sitesPts := randomPoints(500, 72)
	rr, rt, _ := dialCounting(t, "mesh", mesh, 3, twoknn.HashSharding)
	single := buildSingle(t, "mesh", mesh, twoknn.GridIndex)
	sites := buildSingle(t, "sites", sitesPts, twoknn.GridIndex)
	kiosks := buildSingle(t, "kiosks", interiorFocals(60, 73), twoknn.GridIndex)
	f := interiorFocals(1, 74)[0]
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	// Hooks fire on the caller, in shard order, before the wave is launched.
	var hooked []int
	fault.Arm(&fault.Injector{ShardProbe: func(s int) {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		if rt.requests != 0 {
			t.Errorf("OnShardProbe(%d) fired with %d requests already sent", s, rt.requests)
		}
		hooked = append(hooked, s)
	}})
	rt.reset(3)
	got, err := rr.KNNSelect(f, 10)
	fault.Disarm()
	must(err)
	rt.want(t, "KNNSelect", 3, 1, 3)
	if fmt.Sprint(hooked) != "[0 1 2]" {
		t.Errorf("OnShardProbe order %v, want [0 1 2]", hooked)
	}
	want, err := single.KNNSelect(f, 10)
	must(err)
	samePoints(t, "KNNSelect", want, got, false)

	rt.reset(3)
	pairs, err := twoknn.SelectOuterJoin(sites, rr, f, 10, 10)
	must(err)
	rt.want(t, "SelectOuterJoin", 3, 1, 3)
	if rt.focals != 30 {
		t.Errorf("SelectOuterJoin: %d focals on the wire, want the 10 selected points to each of 3 shards", rt.focals)
	}
	wantPairs, err := twoknn.SelectOuterJoin(sites, single, f, 10, 10)
	must(err)
	samePairs(t, "SelectOuterJoin", wantPairs, pairs)

	rt.reset(3)
	f2 := twoknn.Point{X: f.X + 30, Y: f.Y - 30}
	got, err = twoknn.TwoSelects(rr, f, 10, f2, 64)
	must(err)
	rt.want(t, "TwoSelects", 6, 2, 3)
	want, err = twoknn.TwoSelects(single, f, 10, f2, 64)
	must(err)
	samePoints(t, "TwoSelects", want, got, false)

	rt.reset(3)
	focals := interiorFocals(64, 75)
	batches, err := twoknn.KNNSelectBatch(rr, focals, 10)
	must(err)
	rt.want(t, "KNNSelectBatch", 3, 1, 3)
	wantBatches, err := twoknn.KNNSelectBatch(single, focals, 10)
	must(err)
	for i := range focals {
		samePoints(t, fmt.Sprintf("KNNSelectBatch[%d]", i), wantBatches[i], batches[i], false)
	}

	// Both predicates of every pair ride one wave each: 64 pairs one at a
	// time would cost 64 times as many.
	rt.reset(3)
	f2s := interiorFocals(64, 76)
	batches, err = twoknn.TwoSelectsBatch(rr, focals, 10, f2s, 64)
	must(err)
	rt.want(t, "TwoSelectsBatch", 6, 2, 3)
	wantBatches, err = twoknn.TwoSelectsBatch(single, focals, 10, f2s, 64)
	must(err)
	for i := range focals {
		samePoints(t, fmt.Sprintf("TwoSelectsBatch[%d]", i), wantBatches[i], batches[i], false)
	}

	// Inner join, algorithm auto: the selection's own select, then per
	// non-empty outer block one wave of counts and at most two of
	// neighborhoods.
	rt.reset(0)
	pairs, err = twoknn.SelectInnerJoin(kiosks, rr, f, 10, 10)
	must(err)
	if limit := 3 + (3+6)*twoknn.NonEmptyBlocks(kiosks); rt.requests > limit {
		t.Errorf("SelectInnerJoin: %d requests, want at most %d", rt.requests, limit)
	}
	rt.oneAtATime(t, "SelectInnerJoin")
	wantPairs, err = twoknn.SelectInnerJoin(kiosks, single, f, 10, 10)
	must(err)
	samePairs(t, "SelectInnerJoin", wantPairs, pairs)
}

// TestRemoteSpatialWaveSkips holds the wave to the skip rule of the ordered
// sequential walk on a spatial-3 fleet: most (focal, shard) pairs are never
// sent, every shard the walk would probe is asked, and at most one it would
// have skipped.
func TestRemoteSpatialWaveSkips(t *testing.T) {
	const k, shards = 10, 3
	mesh := randomPoints(3000, 81)
	rr, rt, raw := dialCounting(t, "mesh", mesh, shards, twoknn.SpatialSharding)

	bounds := make([]twoknn.Rect, shards)
	for s, tp := range raw {
		info, err := tp.Info(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b := info.Bounds
		bounds[s] = twoknn.NewRect(b.MinX, b.MinY, b.MaxX, b.MaxY)
	}
	// walk is the shard set the in-process probe visits: ascending MINDIST²,
	// the limit tightened after every shard that answers k.
	walk := func(f twoknn.Point) map[int]bool {
		order := []int{0, 1, 2}
		minSq := func(s int) float64 { return bounds[s].MinDistSq(f) }
		for i := 1; i < shards; i++ {
			for j := i; j > 0 && minSq(order[j]) < minSq(order[j-1]); j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		visited, limit := map[int]bool{}, -1.0
		for _, s := range order {
			if limit >= 0 && minSq(s) > limit {
				continue
			}
			visited[s] = true
			var resp remote.ProbeResponse
			if err := raw[s].Probe(context.Background(), remote.OpNeighborhood, &remote.ProbeRequest{X: f.X, Y: f.Y, K: k}, &resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.DSqs) == k && (limit < 0 || resp.DSqs[k-1] < limit) {
				limit = resp.DSqs[k-1]
			}
		}
		return visited
	}

	rng := rand.New(rand.NewSource(82))
	const n = 300
	sent := 0
	for i := 0; i < n; i++ {
		p := mesh[rng.Intn(len(mesh))]
		f := twoknn.Point{X: p.X + 100*rng.Float64() - 50, Y: p.Y + 100*rng.Float64() - 50}
		rt.reset(0)
		if _, err := rr.KNNSelect(f, k); err != nil {
			t.Fatal(err)
		}
		visited, extra := walk(f), 0
		for s, sh := range rt.shards {
			switch {
			case sh.requests > 1:
				t.Fatalf("focal %v: shard %d asked %d times", f, s, sh.requests)
			case sh.requests == 0 && visited[s]:
				t.Fatalf("focal %v: the walk probes shard %d, the wave never asked it", f, s)
			case sh.requests == 1 && !visited[s]:
				extra++
			}
			sent += sh.requests
		}
		if extra > 1 {
			t.Fatalf("focal %v: the wave asked %d shards the walk skips, want at most 1", f, extra)
		}
	}
	if share := 1 - float64(sent)/float64(shards*n); share < 0.5 {
		t.Errorf("share of (focal, shard) pairs never sent = %.3f, want at least 0.5", share)
	}
}

// TestRemoteBatchDifferential holds the batch shapes over remote relations
// byte-identical to the single relation — one shard and three, both
// policies, focals inside and outside the data's extent — including a batch
// larger than the wire's group cap, which must go out in consecutive
// requests.
func TestRemoteBatchDifferential(t *testing.T) {
	ptsA, _, _ := oracleDataset(t, "uniform")
	single := buildSingle(t, "A", ptsA, twoknn.GridIndex)
	rng := rand.New(rand.NewSource(91))
	// More focals than one request may carry, all inside every hash shard's
	// extent; and a mix of focals in and around the data.
	big := make([]twoknn.Point, remote.MaxGroupFocals+88)
	for i := range big {
		big[i] = twoknn.Point{X: 200 + 600*rng.Float64(), Y: 200 + 600*rng.Float64()}
	}
	f1s := make([]twoknn.Point, 200)
	f2s := make([]twoknn.Point, len(f1s))
	for i := range f1s {
		f1s[i] = twoknn.Point{X: 1400*rng.Float64() - 200, Y: 1400*rng.Float64() - 200}
		f2s[i] = twoknn.Point{X: f1s[i].X + 60*rng.Float64(), Y: f1s[i].Y - 60*rng.Float64()}
	}
	batch := func(src twoknn.Source) (bigSel, sel, two [][]twoknn.Point) {
		t.Helper()
		var err error
		if bigSel, err = twoknn.KNNSelectBatch(src, big, 6); err != nil {
			t.Fatal(err)
		}
		if sel, err = twoknn.KNNSelectBatch(src, f1s, 6); err != nil {
			t.Fatal(err)
		}
		if two, err = twoknn.TwoSelectsBatch(src, f1s, 4, f2s, 30); err != nil {
			t.Fatal(err)
		}
		return bigSel, sel, two
	}
	wantBig, wantSel, wantTwo := batch(single)

	for _, policy := range []twoknn.ShardPolicy{twoknn.HashSharding, twoknn.SpatialSharding} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/S=%d", policy, shards), func(t *testing.T) {
				rr, rt, _ := dialCounting(t, "A", ptsA, shards, policy)
				rt.reset(0)
				gotBig, gotSel, gotTwo := batch(rr)
				rt.oneAtATime(t, "batches")
				for name, pair := range map[string][2][][]twoknn.Point{
					"KNNSelectBatch over the cap": {wantBig, gotBig}, "KNNSelectBatch": {wantSel, gotSel}, "TwoSelectsBatch": {wantTwo, gotTwo},
				} {
					for i := range pair[0] {
						samePoints(t, fmt.Sprintf("%s[%d]", name, i), pair[0][i], pair[1][i], false)
					}
				}
				if policy == twoknn.HashSharding {
					rt.reset(0)
					if _, err := twoknn.KNNSelectBatch(rr, big, 6); err != nil {
						t.Fatal(err)
					}
					if rt.requests != 2*shards || rt.focals != shards*len(big) {
						t.Errorf("%d focals to %d shards went out as %d requests carrying %d, want two consecutive requests per shard",
							len(big), shards, rt.requests, rt.focals)
					}
					rt.oneAtATime(t, "KNNSelectBatch over the cap")
				}
			})
		}
	}
}

// TestRemoteConnectionReuse runs 16 clients × 50 selects against httptest
// shards through DialRemote's default client. Each client has one request
// per shard in flight at a time, so a pool that keeps its connections never
// closes one and opens at most two per client and shard: the one a client's
// last request used may still be on its way back to the pool (net/http
// returns it from its own goroutine) when the client's next request looks
// for one. http.DefaultTransport's two idle connections per host close and
// re-dial hundreds.
func TestRemoteConnectionReuse(t *testing.T) {
	const clients, selects, shards = 16, 50, 3
	mesh := randomPoints(3000, 95)
	urls := make([][]string, shards)
	opened, closed := make([]atomic.Int32, shards), make([]atomic.Int32, shards)
	for s, h := range shardHandlers(t, "mesh", mesh, shards, twoknn.HashSharding) {
		srv := httptest.NewUnstartedServer(h)
		srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
			switch state {
			case http.StateNew:
				opened[s].Add(1)
			case http.StateClosed:
				closed[s].Add(1)
			}
		}
		srv.Start()
		t.Cleanup(srv.Close)
		urls[s] = []string{srv.URL}
	}
	rr, err := twoknn.DialRemote(context.Background(), "mesh", urls, fastRemoteCfg())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, f := range interiorFocals(selects, int64(100+c)) {
				if _, err := rr.KNNSelect(f, 10); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for s := range opened {
		if o, c := opened[s].Load(), closed[s].Load(); o > 2*clients || c != 0 {
			t.Errorf("shard %d saw %d connections opened and %d closed by %d clients", s, o, c, clients)
		}
	}
	for _, sh := range rr.RemoteStats() {
		for _, ep := range sh.Endpoints {
			if ep.Retries != 0 || ep.Failures != 0 {
				t.Errorf("healthy fleet, yet %+v", ep)
			}
		}
	}
}

// flakyOnce returns an injector hook that fires on the endpoint's next
// attempt only. Safe from any goroutine: a wave's attempts run on several.
func flakyOnce(endpoint string) func(string) bool {
	var fired atomic.Bool
	return func(ep string) bool { return ep == endpoint && fired.CompareAndSwap(false, true) }
}

// stalled never answers a probe: it returns when its context is canceled,
// and counts that it was.
type stalled struct {
	remote.ShardTransport
	canceled *atomic.Int32
}

func (s stalled) Probe(ctx context.Context, _ remote.Op, _ *remote.ProbeRequest, _ *remote.ProbeResponse) error {
	select {
	case <-ctx.Done():
		s.canceled.Add(1)
		return ctx.Err()
	case <-time.After(10 * time.Second):
		return errors.New("stalled probe was never canceled")
	}
}

// TestRemoteWaveFaults re-runs the remote chaos battery with siblings in
// flight: the unit is a 10-focal outer-join group to a 3-shard fleet, and
// shard 1 is the one that misbehaves.
func TestRemoteWaveFaults(t *testing.T) {
	mesh := randomPoints(1500, 61)
	sites := buildSingle(t, "sites", randomPoints(300, 62), twoknn.GridIndex)
	single := buildSingle(t, "mesh", mesh, twoknn.GridIndex)
	f := twoknn.Point{X: 480, Y: 520}
	want, err := twoknn.SelectOuterJoin(sites, single, f, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	quiet := func() *twoknn.RemoteConfig {
		cfg := fastRemoteCfg()
		cfg.MaxRetries = twoknn.NoRetries
		cfg.HedgeAfter = twoknn.NoHedging
		cfg.BreakerThreshold = twoknn.NoBreaker
		return cfg
	}
	const victim = "loop://mesh/1"

	// A dropped, reset or corrupted group on one shard while the other two
	// answer: one retry, on that shard only, and the exact answer.
	for name, inj := range map[string]*fault.Injector{
		"dropped":   {DropProbe: flakyOnce(victim)},
		"reset":     {ResetConn: flakyOnce(victim)},
		"corrupted": {CorruptResponse: flakyOnce(victim)},
	} {
		t.Run(name, func(t *testing.T) {
			rr := dialTransports(t, "mesh", loopbacks(t, "mesh", mesh, 3, twoknn.HashSharding), fastRemoteCfg())
			fault.Arm(inj)
			defer fault.Disarm()
			got, err := twoknn.SelectOuterJoin(sites, rr, f, 10, 10)
			if err != nil {
				t.Fatal(err)
			}
			samePairs(t, "SelectOuterJoin/"+name, want, got)
			for s, sh := range rr.RemoteStats() {
				if retries := sh.Endpoints[0].Retries; retries != int64(s%2) {
					t.Errorf("shard %d retried %d times, want %d", s, retries, s%2)
				}
			}
		})
	}

	// Failed over rather than retried, with a second replica to go to.
	t.Run("failed-over", func(t *testing.T) {
		primary := loopbacks(t, "mesh", mesh, 3, twoknn.HashSharding)
		layout := make([][]remote.ShardTransport, 3)
		for s, h := range shardHandlers(t, "mesh", mesh, 3, twoknn.HashSharding) {
			layout[s] = []remote.ShardTransport{primary[s], remote.NewLoopback(h.(*remote.ShardServer), fmt.Sprintf("loop://mesh/%d/b", s))}
		}
		rr, err := twoknn.DialRemoteTransports(context.Background(), "mesh", layout, quiet())
		if err != nil {
			t.Fatal(err)
		}
		fault.DropEndpoint(victim)
		defer fault.Disarm()
		got, err := twoknn.SelectOuterJoin(sites, rr, f, 10, 10)
		if err != nil {
			t.Fatal(err)
		}
		samePairs(t, "SelectOuterJoin/failed-over", want, got)
		for s, sh := range rr.RemoteStats() {
			if sh.Failovers != int64(s%2) {
				t.Errorf("shard %d failed over %d times, want %d", s, sh.Failovers, s%2)
			}
		}
	})

	// An exhausted replica set fails the query closed, once, naming its
	// shard; the siblings — which would never answer — are canceled, and no
	// goroutine outlives the query.
	t.Run("exhausted-cancels-siblings", func(t *testing.T) {
		var canceled atomic.Int32
		tps := loopbacks(t, "mesh", mesh, 3, twoknn.HashSharding)
		rr := dialTransports(t, "mesh", []remote.ShardTransport{stalled{tps[0], &canceled}, tps[1], stalled{tps[2], &canceled}}, quiet())
		fault.DropEndpoint(victim)
		defer fault.Disarm()
		baseline := runtime.NumGoroutine()
		got, err := twoknn.SelectOuterJoin(sites, rr, f, 10, 10)
		if !errors.Is(err, twoknn.ErrShardUnavailable) || got != nil {
			t.Fatalf("want ErrShardUnavailable and no result, got (%d pairs, %v)", len(got), err)
		}
		if n := strings.Count(err.Error(), remote.ErrUnavailable.Error()); n != 1 || !strings.Contains(err.Error(), "shard 1") {
			t.Errorf("want shard 1 reported unavailable exactly once, got %q", err)
		}
		if n := canceled.Load(); n != 2 {
			t.Errorf("%d sibling requests were canceled, want 2", n)
		}
		if stats := rr.RemoteStats(); stats[1].Exhausted != 1 {
			t.Errorf("shard 1 exhausted %d times, want once", stats[1].Exhausted)
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the query, %d before", runtime.NumGoroutine(), baseline)
			}
		}
	})

	// The same failure under WithPartialResults: exactly that shard is
	// reported missing, nothing is canceled, and every focal of the group
	// is merged from the other two shards.
	t.Run("exhausted-partial", func(t *testing.T) {
		var reachable []twoknn.Point
		for s, st := range shard.Partition(mesh, 3, shard.PolicyHash) {
			for i := 0; s != 1 && i < st.Len(); i++ {
				reachable = append(reachable, st.At(i))
			}
		}
		degraded := buildSingle(t, "mesh-1", reachable, twoknn.GridIndex)
		wantDeg, err := twoknn.SelectOuterJoin(sites, degraded, f, 10, 10)
		if err != nil {
			t.Fatal(err)
		}
		rr := dialTransports(t, "mesh", loopbacks(t, "mesh", mesh, 3, twoknn.HashSharding), quiet())
		fault.DropEndpoint(victim)
		defer fault.Disarm()

		got, err := twoknn.SelectOuterJoin(sites, rr, f, 10, 10, twoknn.WithPartialResults())
		var pre *twoknn.PartialResultError
		if !errors.As(err, &pre) || fmt.Sprint(pre.Missing) != "[1]" {
			t.Fatalf("want a *PartialResultError missing [1], got %v", err)
		}
		samePairs(t, "SelectOuterJoin/partial", wantDeg, got)

		focals := interiorFocals(40, 63)
		wantBatch, err := twoknn.KNNSelectBatch(degraded, focals, 5)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := twoknn.KNNSelectBatch(rr, focals, 5, twoknn.WithPartialResults())
		if !errors.As(err, &pre) || fmt.Sprint(pre.Missing) != "[1]" {
			t.Fatalf("batch: want a *PartialResultError missing [1], got %v", err)
		}
		for i := range focals {
			samePoints(t, fmt.Sprintf("KNNSelectBatch/partial[%d]", i), wantBatch[i], batch[i], false)
		}
	})

	// A deadline that expires mid-wave is the query's cancellation, as it is
	// for a single probe — with or without partial results.
	t.Run("deadline-mid-wave", func(t *testing.T) {
		rr := dialTransports(t, "mesh", loopbacks(t, "mesh", mesh, 3, twoknn.HashSharding), fastRemoteCfg())
		fault.SlowEndpoint(victim, 2*time.Second)
		defer fault.Disarm()
		for _, opts := range [][]twoknn.QueryOption{nil, {twoknn.WithPartialResults()}} {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			start := time.Now()
			_, err := twoknn.SelectOuterJoin(sites, rr, f, 10, 10, append(opts, twoknn.WithContext(ctx))...)
			cancel()
			if !errors.Is(err, twoknn.ErrQueryCanceled) || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("want ErrQueryCanceled wrapping DeadlineExceeded, got %v", err)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("the query outlived its 50ms deadline by %v", d)
			}
		}
	})

	// A panic inside a shard request — on a wave goroutine (shard 0) or on
	// the caller's (shard 2, the last) — is the typed internal error, not a
	// process exit.
	for _, s := range []int{0, 2} {
		t.Run(fmt.Sprintf("panic-in-shard-%d-request", s), func(t *testing.T) {
			rr := dialTransports(t, "mesh", loopbacks(t, "mesh", mesh, 3, twoknn.HashSharding), fastRemoteCfg())
			poisoned := fmt.Sprintf("loop://mesh/%d", s)
			fault.Arm(&fault.Injector{DropProbe: func(ep string) bool {
				if ep == poisoned {
					panic("chaos: poisoned shard request")
				}
				return false
			}})
			defer fault.Disarm()
			_, err := twoknn.SelectOuterJoin(sites, rr, f, 10, 10)
			var qpe *twoknn.QueryPanicError
			if !errors.As(err, &qpe) || qpe.Value != "chaos: poisoned shard request" {
				t.Fatalf("want a *QueryPanicError carrying the panic, got %v", err)
			}
		})
	}
}
