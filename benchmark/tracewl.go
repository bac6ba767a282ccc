package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"time"

	twoknn "repro"
	"repro/internal/locality"
	"repro/internal/remote"
	"repro/internal/server"
)

// This file is the traced run of each workload (--trace 1): an untraced
// window and a traced window of the same load, the workload's own counters
// scraped from /metrics around them, and the layer probes. It emits every
// per-layer metric; one that names a layer the workload does not use reads 0.

// traceShare is the share of -seconds each of the two windows gets.
const traceShare = 0.3

// workloadOnly are the per-layer metrics only some workloads can measure;
// every traced run starts them at 0 and overwrites its own.
var workloadOnly = []string{
	"unchained_p50_ms", "chained_p50_ms", "write_p50_us", "write_p95_us", "rate_ok_ops_s",
	"qcache.hit_share", "server.http_overhead_us", "server.shed", "server.deadline", "server.compactions",
	"loadgen.late_p50_us",
	"remote.probe_rtt_p50_us", "remote.probes_per_select", "remote.probes_per_outerjoin", "remote.probes_per_innerjoin",
	"remote.select_model_ratio", "remote.retries", "remote.hedges", "remote.failovers",
}

// tracedPass runs the untraced window, then the traced one, and reports the
// tracing overhead (traced select p50 over untraced).
func tracedPass(c *runCfg, out *outcome, base loop, wk *walker) (untraced, traced *window) {
	for _, name := range workloadOnly {
		out.set(name, 0)
	}
	base.dur = c.dur(traceShare)
	untraced = base.run()
	base.offset, base.walk = untraced.taken, wk.walk
	traced = base.run()
	out.count("untraced window", untraced)
	out.count("traced window", traced)
	up, _ := untraced.p50us(opSelect)
	tp, _ := traced.p50us(opSelect)
	out.set("trace.overhead_ratio", tp/up)
	out.notef("select p50: untraced %.1fus, traced %.1fus", up, tp)
	out.latencies(untraced) // innerjoin, batch and the select tail are per-layer metrics
	if len(untraced.late) > 0 {
		out.set("loadgen.late_p50_us", quantileOf(untraced.late, 0.5)*1e6)
	}
	return untraced, traced
}

// finishTrace adds what every traced run ends with.
func finishTrace(c *runCfg, out *outcome, wk *walker, d *probeData) {
	out.set("failed_share", share(int64(out.failed), int64(out.attempted)))
	wk.traceShares(out)
	layerProbes(c, out, d)
	if allocs := out.metrics["locality.allocs_per_nbr"]; allocs != 0 {
		out.problemf("locality.allocs_per_nbr is %v; the steady-state neighborhood must not allocate", allocs)
	}
	out.trace = wk.log
}

func serveInproc(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

func traceEngine(c *runCfg, out *outcome, sp specs, eng *inproc, ops []op, offset int) (*outcome, error) {
	d, err := newProbeData(c.seed, sp.trips, sp)
	if err != nil {
		return nil, err
	}
	wk, err := newWalker(newTraceLog("engine-shapes"), eng.src, bind{}, false, locality.NewSearcher(gridOver(d.main)), nil)
	if err != nil {
		return nil, err
	}
	u, _ := tracedPass(c, out, loop{ops: ops, offset: offset, workers: 1, do: eng.do}, wk)
	eng.verify(out)
	for name, kind := range map[string]opKind{"unchained_p50_ms": opUnchained, "chained_p50_ms": opChained} {
		v, n := p50(u.byKind[kind], u.seconds)
		out.set(name, v*1e3)
		out.notef("%s over %d samples", name, n)
	}
	finishTrace(c, out, wk, d)
	return out, nil
}

// servedCounters reads, from two /metrics scrapes around the windows, the
// result cache's hit share on one dataset and the shed and deadline route
// counters.
func servedCounters(out *outcome, before, after *server.MetricsResponse, dataset string) {
	b, a := before.Datasets[dataset], after.Datasets[dataset]
	hits, misses := a.CacheHits-b.CacheHits, a.CacheMisses-b.CacheMisses
	out.set("qcache.hit_share", share(hits, hits+misses))
	var shed, deadline int64
	for route, r := range after.Routes {
		shed += r.Shed - before.Routes[route].Shed
		deadline += r.Deadline - before.Routes[route].Deadline
	}
	out.set("server.shed", float64(shed))
	out.set("server.deadline", float64(deadline))
}

// httpOverhead sets the handler's in-process time on the workload's own
// sources (the whole stack minus sockets) and what the client observed on
// top of it.
func httpOverhead(out *outcome, wk *walker, untraced *window) {
	if len(wk.handlerS) == 0 {
		return
	}
	inproc := median(wk.handlerS) * 1e6
	observed, _ := untraced.p50us(opSelect)
	out.set("server.handler_inproc_us", inproc)
	out.set("server.http_overhead_us", observed-inproc)
}

// sustained reports whether an open-loop step met the latency limit: select
// p99 within the limit, nothing failed or left unsent, and the generator
// not falling further behind as the step went on.
func sustained(w *window) bool {
	p99, _, _ := tail(w.byKind[opSelect], w.seconds, 0.99)
	n := len(w.late) / 5
	growing := n > 0 && median(w.late[len(w.late)-n:]) > 2*median(w.late[:n])+200e-6
	return w.failed == 0 && w.unsent == 0 && p99 <= selectLimit.Seconds() && !growing
}

func traceServeMixed(c *runCfg, out *outcome, p *proc, sv *served, ops []op, offset int) (*outcome, error) {
	sp := specsFor(engineTrips)
	d, err := newProbeData(c.seed, sp.trips, sp)
	if err != nil {
		return nil, err
	}
	b := bind{main: "trips", sites: "sites", innerOuter: "sites", depots: "depots"}
	wk, err := newWalker(newTraceLog("serve-mixed"), sv.src, b, true, locality.NewSearcher(gridOver(d.main)), nil)
	if err != nil {
		return nil, err
	}
	before, err := p.metrics()
	if err != nil {
		return nil, err
	}
	base := loop{ops: ops, offset: offset, workers: c.nproc, rate: mixedRate, do: sv.do}
	u, t := tracedPass(c, out, base, wk)

	// The ladder: the untraced window was its lowest step; climb the rest.
	rateOK, at := 0.0, t.taken
	steps := []*window{u}
	for _, rate := range ladder[1:] {
		w := loop{ops: ops, offset: at, workers: c.nproc, rate: rate, dur: c.dur(0.2), do: sv.do}.run()
		at = w.taken
		// A step past saturation fails by design; its operations are not
		// the run's failures.
		steps = append(steps, w)
	}
	for i, w := range steps {
		p99, n, _ := tail(w.byKind[opSelect], w.seconds, 0.99)
		ok := sustained(w)
		out.notef("ladder %g req/s: select p99 %.0fus over %d samples, %d failed, %d unsent, sustained %v", ladder[i], p99*1e6, n, w.failed, w.unsent, ok)
		if ok && ladder[i] > rateOK {
			rateOK = ladder[i]
		}
	}
	out.set("rate_ok_ops_s", rateOK)

	after, err := p.metrics()
	if err != nil {
		return nil, err
	}
	servedCounters(out, before, after, "trips")
	httpOverhead(out, wk, u)
	if err := p.stopServer(); err != nil {
		out.problemf("teardown: %v", err)
	}
	sv.verify(out)
	finishTrace(c, out, wk, d)
	return out, nil
}

func traceReadWrite(c *runCfg, out *outcome, p *proc, rd *liveReader, wr *writer, ops []op, offset int) (*outcome, error) {
	sp := specsFor(engineTrips)
	d, err := newProbeData(c.seed, sp.live, sp)
	if err != nil {
		return nil, err
	}
	// The walk replays reads on the mirror, which receives the same writes,
	// so its in-process handler pays the same render-table rebuilds.
	b := bind{main: "live", sites: "sites", innerOuter: "kiosks"}
	wk, err := newWalker(newTraceLog("serve-readwrite"), rd.src, b, true, locality.NewSearcher(gridOver(d.main)), nil)
	if err != nil {
		return nil, err
	}
	before, err := p.metrics()
	if err != nil {
		return nil, err
	}
	t0 := time.Since(wr.start).Seconds()
	u, _ := tracedPass(c, out, loop{ops: ops, offset: offset, workers: c.nproc, rate: readRate, do: rd.do}, wk)
	t1 := time.Since(wr.start).Seconds()
	wr.stop()
	after, err := p.metrics()
	if err != nil {
		return nil, err
	}
	rd.report(out)
	writes := wr.report(out, t0, t1)
	v, _ := p50(writes, t1-t0)
	out.set("write_p50_us", v*1e6)
	durs := make([]float64, len(writes))
	for i, s := range writes {
		durs[i] = s.dur
	}
	out.set("write_p95_us", quantileOf(durs, 0.95)*1e6)
	out.notef("write latencies over %d writes: p95 has %d beyond it", len(writes), len(writes)/20)
	out.set("server.compactions", float64(after.Datasets["live"].Delta.Compactions-before.Datasets["live"].Delta.Compactions))
	servedCounters(out, before, after, "live")
	httpOverhead(out, wk, u)
	if err := p.stopServer(); err != nil {
		out.problemf("teardown: %v", err)
	}
	finishTrace(c, out, wk, d)
	return out, nil
}

func traceFleet(c *runCfg, out *outcome, f *fleet, sv *served, ops []op, offset int) (*outcome, error) {
	sp := specsFor(fleetTrips)
	d, err := newProbeData(c.seed, sp.trips, sp)
	if err != nil {
		return nil, err
	}
	// The walk's engine stage runs on the harness's own RemoteRelation,
	// dialed to the same live shards through a round-trip recorder: its
	// probes become the engine span's children.
	rec := &probeRecorder{base: &http.Transport{MaxIdleConnsPerHost: 2 * fleetShards}}
	urls := make([][]string, fleetShards)
	for i, p := range f.shards {
		urls[i] = []string{"http://" + p.addr}
	}
	ctx, cancel := context.WithTimeout(context.Background(), healthDeadline)
	defer cancel()
	mesh, err := twoknn.DialRemote(ctx, "mesh", urls, &twoknn.RemoteConfig{HTTPClient: &http.Client{Transport: rec}})
	if err != nil {
		return nil, err
	}
	b := bind{main: "mesh", sites: "sites", innerOuter: "kiosks"}
	wsrc := sources{main: mesh, sites: sv.src.sites, innerOuter: sv.src.innerOuter}
	wk, err := newWalker(newTraceLog("fleet-scatter"), wsrc, b, true, nil, rec)
	if err != nil {
		return nil, err
	}
	u, _ := tracedPass(c, out, loop{ops: ops, offset: offset, workers: 1, do: sv.do}, wk)

	// Probes per operation, counted from the recorded round trips.
	probes, requests := map[string]float64{}, map[string]float64{}
	for _, s := range wk.log.Spans {
		if s.Parent == 0 {
			requests[s.Kind]++
		} else if s.Name == "remote.probe" {
			probes[s.Kind]++
		}
	}
	for _, k := range []opKind{opSelect, opOuterJoin, opInnerJoin} {
		if n := requests[k.String()]; n > 0 {
			out.set("remote.probes_per_"+k.String(), probes[k.String()]/n)
		}
	}

	// One probe's round trip against the live shards, fleet otherwise idle.
	var rtts []float64
	for i := 0; i < 300; i++ {
		tp := remote.NewHTTPTransport(urls[i%fleetShards][0], nil)
		fo := d.focals[i%len(d.focals)]
		var resp remote.ProbeResponse
		t0 := time.Now()
		err := tp.Probe(ctx, remote.OpNeighborhood, &remote.ProbeRequest{X: fo.X, Y: fo.Y, K: selectK}, &resp)
		if err != nil {
			return nil, err
		}
		rtts = append(rtts, time.Since(t0).Seconds())
	}
	rtt := quantileOf(rtts[30:], 0.5) * 1e6 // the first probes open connections
	out.set("remote.probe_rtt_p50_us", rtt)
	observed, _ := u.p50us(opSelect)
	model := out.metrics["remote.probes_per_select"] * rtt
	out.set("remote.select_model_ratio", model/observed)
	out.notef("select through the fleet: %.1f probes x %.1fus round trip = %.1fus against %.1fus observed", out.metrics["remote.probes_per_select"], rtt, model, observed)

	e := f.checkEnvelope(out)
	out.set("remote.retries", float64(e.retries))
	out.set("remote.hedges", float64(e.hedges))
	out.set("remote.failovers", float64(e.failovers))
	httpOverhead(out, wk, u)
	if err := f.stop(); err != nil {
		out.problemf("teardown: %v", err)
	}
	sv.verify(out)
	finishTrace(c, out, wk, d)
	return out, nil
}
