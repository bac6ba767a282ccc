package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	twoknn "repro"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/index/grid"
	"repro/internal/index/overlay"
	"repro/internal/kernel"
	"repro/internal/locality"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stats"
)

// This file holds the layer probes: every layer's exported functions called
// directly on the workload's datasets, outside any request. They run in the
// traced run of every workload, so a per-layer number always sits next to
// the end-to-end numbers of the same data and host.

// blockCapacity is the engine's default points per index block.
const blockCapacity = 64

// bench times fn: it sizes a batch to about 15ms, runs five batches and
// returns the median nanoseconds per call.
func bench(fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t0); d >= 15*time.Millisecond || n >= 1<<24 {
			break
		}
		n *= 4
	}
	per := make([]float64, 5)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// benchDelta times what b costs beyond a: the two are called back to back
// 400 times and the median of the per-pair differences is returned, in
// nanoseconds. Timing them in separate batches would let clock-speed drift
// between the batches swamp a difference of a few hundred nanoseconds.
func benchDelta(a, b func()) float64 {
	a()
	b()
	diffs := make([]float64, 400)
	for i := range diffs {
		t0 := time.Now()
		a()
		t1 := time.Now()
		b()
		t2 := time.Now()
		diffs[i] = float64(t2.Sub(t1) - t1.Sub(t0))
	}
	return median(diffs)
}

// once times a long call: the median of three runs, in nanoseconds.
func once(fn func()) float64 {
	per := make([]float64, 3)
	for i := range per {
		t0 := time.Now()
		fn()
		per[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(per)
}

// probeData is what the probes run on: the workload's main point set (a
// static copy, for the mutable workload), the small relations every
// workload's operations join against, and focals drawn like the workload's.
type probeData struct {
	main, sites, depots, kiosks []twoknn.Point
	focals                      []twoknn.Point
	genSeconds                  float64 // time the harness took to generate main
}

func newProbeData(seed int64, mainSpec string, sp specs) (*probeData, error) {
	d := &probeData{}
	var err error
	t0 := time.Now()
	if d.main, err = loadPoints(mainSpec); err != nil {
		return nil, err
	}
	d.genSeconds = time.Since(t0).Seconds()
	if d.sites, err = loadPoints(sp.sites); err != nil {
		return nil, err
	}
	if d.depots, err = loadPoints(sp.depots); err != nil {
		return nil, err
	}
	if d.kiosks, err = loadPoints(sp.kiosks); err != nil {
		return nil, err
	}
	g := newOpGen(seed, d.main, bind{})
	d.focals = g.pool[:1024]
	return d, nil
}

// shardGrid is the index builder of the in-process shard probes.
func shardGrid(st *geom.PointStore) (index.Index, error) {
	return grid.NewFromStore(st, grid.Options{TargetPerCell: blockCapacity})
}

func gridOver(pts []twoknn.Point) index.Index {
	ix, err := grid.NewFromStore(geom.StoreFromPoints(pts), grid.Options{TargetPerCell: blockCapacity})
	if err != nil {
		panic(err) // non-empty generated data; cannot fail
	}
	return ix
}

// layerProbes measures every workload-independent per-layer metric.
func layerProbes(c *runCfg, out *outcome, d *probeData) {
	rng := rand.New(rand.NewSource(c.seed))
	next := 0
	focal := func() twoknn.Point { // cycles the focal set
		next++
		return d.focals[next%len(d.focals)]
	}
	f0 := d.focals[0]

	// kernel: 64- and 256-lane spans, alternating, per point.
	xs, ys := make([]float64, 256), make([]float64, 256)
	for i := range xs {
		xs[i], ys[i] = rng.Float64()*10000, rng.Float64()*10000
	}
	scratch, idx := make([]float64, 256), make([]int32, 256)
	const lanes = 64 + 256
	const radiusSq = 3000 * 3000 // about a quarter of the lanes qualify
	out.set("kernel.distsq_ns_per_pt", bench(func() {
		kernel.DistSq(xs[:64], ys[:64], 5000, 5000, scratch)
		kernel.DistSq(xs, ys, 5000, 5000, scratch)
	})/lanes)
	sink := 0
	out.set("kernel.countwithin_ns_per_pt", bench(func() {
		sink += kernel.CountWithin(xs[:64], ys[:64], 5000, 5000, radiusSq)
		sink += kernel.CountWithin(xs, ys, 5000, 5000, radiusSq)
	})/lanes)
	out.set("kernel.selectwithin_ns_per_pt", bench(func() {
		sink += kernel.SelectWithin(xs[:64], ys[:64], 5000, 5000, radiusSq, idx)
		sink += kernel.SelectWithin(xs, ys, 5000, 5000, radiusSq, idx)
	})/lanes)

	// dataload and index.
	out.set("dataload.berlinmod_gen_s", d.genSeconds)
	store := geom.StoreFromPoints(d.main)
	var ix index.Index
	out.set("index.build_ns_per_pt", once(func() {
		ix, _ = grid.NewFromStore(store, grid.Options{TargetPerCell: blockCapacity})
	})/float64(len(d.main)))
	iters := index.NewIterPool(ix)
	out.set("index.mindist_ns_per_block", bench(func() {
		it := iters.MinDist(focal())
		for j := 0; j < 16; j++ {
			it.Next()
		}
	})/16)
	probeOverlay(out, d, ix)

	// locality.
	s := locality.NewSearcher(ix)
	nbr10 := bench(func() { s.Neighborhood(focal(), selectK, nil) })
	out.set("locality.nbr_k10_ns", nbr10)
	out.set("locality.nbr_k640_ns", bench(func() { s.Neighborhood(focal(), twoSelK2, nil) }))
	thresholdSq := s.Neighborhood(f0, twoSelK2, nil).FarthestDist()
	thresholdSq *= thresholdSq
	out.set("locality.count_closer_ns", bench(func() { sink += s.CountStrictlyCloser(focal(), selectK, thresholdSq, nil) }))
	out.set("locality.allocs_per_nbr", testing.AllocsPerRun(200, func() { s.Neighborhood(focal(), selectK, nil) }))
	var ctr stats.Counters
	for _, f := range d.focals {
		s.Neighborhood(f, selectK, &ctr)
	}
	out.set("locality.pts_compared_per_nbr", float64(ctr.PointsCompared)/float64(len(d.focals)))
	out.set("locality.blocks_scanned_per_nbr", float64(ctr.BlocksScanned)/float64(len(d.focals)))

	// core: the paper's algorithms against their conceptual plans, one fixed
	// case each (the operations' own parameters).
	trips, sites, depots := core.NewRelation(ix), core.NewRelation(gridOver(d.sites)), core.NewRelation(gridOver(d.depots))
	seq := once(func() { core.KNNJoin(sites, trips, joinK, nil) })
	out.set("core.knnjoin_ns_per_outer", seq/float64(len(d.sites)))
	out.set("core.knnjoin_parallel_speedup", seq/once(func() { core.KNNJoinParallel(sites, trips, joinK, c.nproc, nil) }))
	out.set("core.pool_acquire_ns", bench(func() { trips.Acquire().Release() }))

	ctr = stats.Counters{}
	fast := once(func() {
		core.SelectInnerJoinBlockMarking(sites, trips, f0, joinK, joinK, core.BlockMarkingOptions{}, nil)
	})
	out.set("core.innerjoin_conceptual_ratio", once(func() { core.SelectInnerJoinConceptual(sites, trips, f0, joinK, joinK, nil) })/fast)
	core.SelectInnerJoinCounting(sites, trips, f0, joinK, joinK, &ctr)
	out.set("core.innerjoin_outer_skipped_share", float64(ctr.OuterSkipped)/float64(len(d.sites)))

	ctr = stats.Counters{}
	fast = once(func() {
		core.UnchainedBlockMarking(depots, trips, sites, unchainedAB, unchainedCB, core.OrderAuto, nil)
	})
	out.set("core.unchained_conceptual_ratio", once(func() { core.UnchainedConceptual(depots, trips, sites, unchainedAB, unchainedCB, nil) })/fast)
	core.UnchainedBlockMarking(depots, trips, sites, unchainedAB, unchainedCB, core.OrderAuto, &ctr)
	out.set("core.unchained_blocks_pruned_share", share(ctr.BlocksPruned, ctr.BlocksPruned+ctr.BlocksScanned))

	ctr = stats.Counters{}
	fast = once(func() {
		core.ChainedJoins(depots, sites, trips, chainedAB, chainedBC, core.ChainedNestedJoinCached, nil)
	})
	out.set("core.chained_cache_ratio", once(func() { core.ChainedJoins(depots, sites, trips, chainedAB, chainedBC, core.ChainedNestedJoin, nil) })/fast)
	core.ChainedJoins(depots, sites, trips, chainedAB, chainedBC, core.ChainedNestedJoinCached, &ctr)
	out.set("core.chained_cache_hit_share", share(ctr.CacheHits, ctr.CacheHits+ctr.CacheMisses))

	f2 := twoknn.Point{X: f0.X + twoSelShift, Y: f0.Y - twoSelShift}
	fast = bench(func() { core.TwoSelects(trips, f0, twoSelK1, f2, twoSelK2, nil) })
	out.set("core.twoselects_conceptual_ratio", bench(func() { core.TwoSelectsConceptual(trips, f0, twoSelK1, f2, twoSelK2, nil) })/fast)

	// plan: choosing and building a plan must stay free next to running it.
	out.set("plan.choose_and_build_ns", bench(func() {
		alg, _ := plan.ChooseSelectJoinAlgorithm(plan.Auto, len(d.sites), 0)
		plan.SelectInnerJoinPlan(alg, "sites", "trips", len(d.sites), len(d.main), joinK, joinK)
	}))

	// twoknn: the public API's cost on top of the layers it calls.
	rel, err := twoknn.NewRelation("probe", d.main)
	if err != nil {
		panic(err)
	}
	kiosks, err := twoknn.NewRelation("kiosks", d.kiosks)
	if err != nil {
		panic(err)
	}
	var f twoknn.Point
	out.set("twoknn.select_overhead_ns", benchDelta(
		func() { f = focal(); s.Neighborhood(f, selectK, nil) },
		func() { _, _ = twoknn.KNNSelect(rel, f, selectK) }))
	ctx, cancel := context.WithCancel(context.Background())
	out.set("twoknn.ctx_bind_ns", benchDelta(
		func() { f = focal(); _, _ = twoknn.KNNSelect(rel, f, selectK) },
		func() { _, _ = twoknn.KNNSelect(rel, f, selectK, twoknn.WithContext(ctx)) }))
	cancel()
	var explain string
	out.set("plan.explain_us", benchDelta(
		func() { _, _ = twoknn.SelectInnerJoin(kiosks, rel, f0, joinK, joinK) },
		func() { _, _ = twoknn.SelectInnerJoin(kiosks, rel, f0, joinK, joinK, twoknn.WithExplain(&explain)) })/1e3)

	// batch: 64 Zipf-drawn focals against 64 sequential selects.
	g := newOpGen(c.seed, d.main, bind{})
	batch := g.next(opBatch, false).focals
	out.set("batch.ns_per_focal", bench(func() { _, _ = twoknn.KNNSelectBatch(rel, batch, selectK) })/batchFocals)
	var batched, single twoknn.Stats
	_, _ = twoknn.KNNSelectBatch(rel, batch, selectK, twoknn.WithStats(&batched))
	for _, f := range batch {
		_, _ = twoknn.KNNSelect(rel, f, selectK, twoknn.WithStats(&single))
	}
	out.set("batch.blocks_scanned_ratio", share(batched.BlocksScanned, single.BlocksScanned))

	// qcache.
	cache := qcache.New(batchPool)
	ids := make([]int32, selectK)
	for _, f := range d.focals {
		cache.Put(qcache.Key{Epoch: 1, FX: f.X, FY: f.Y, K: selectK}, ids)
	}
	out.set("qcache.get_hit_ns", bench(func() {
		f := focal()
		cache.Get(qcache.Key{Epoch: 1, FX: f.X, FY: f.Y, K: selectK})
	}))
	epoch := uint64(2)
	out.set("qcache.put_ns", bench(func() {
		f := focal()
		if next%len(d.focals) == 0 {
			epoch++ // a fresh epoch, so puts insert rather than overwrite
		}
		cache.Put(qcache.Key{Epoch: epoch, FX: f.X, FY: f.Y, K: selectK}, ids)
	}))

	hashed, err := shard.New(d.main, fleetShards, shard.PolicyHash, 0, shardGrid)
	if err != nil {
		panic(err)
	}
	probeShard(out, d, trips, hashed, focal)
	probeWire(out, d, hashed, focal)
	probeServer(out, d, rel)
	_ = sink
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// probeOverlay measures the mutable path's two index costs: publishing a
// snapshot of an overlay carrying a 25% delta, and compacting it away.
func probeOverlay(out *outcome, d *probeData, ix index.Index) {
	ov := overlay.NewStore(ix, blockCapacity)
	quarter := len(d.main) / 4
	for i := 0; i < quarter/2; i++ {
		ov.Insert(d.main[i], int32(len(d.main)+i))
		ov.Remove(int32(i))
	}
	out.set("index.overlay_snapshot_us", bench(func() { ov.Snapshot() })/1e3)

	rel, err := twoknn.NewRelation("compact", d.main, twoknn.WithCompactThreshold(-1))
	if err != nil {
		panic(err)
	}
	times := make([]float64, 3)
	for i := range times {
		ids := rel.Insert(d.main[:quarter]...)
		t0 := time.Now()
		_ = rel.Compact()
		times[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		rel.Remove(ids...)
		_ = rel.Compact()
	}
	out.set("index.compact_ms", median(times))
}

// probeShard measures partitioning, the merge a three-member group adds to
// a select, and how often the spatial policy lets a select skip a shard.
func probeShard(out *outcome, d *probeData, single *core.Relation, hashed *shard.Relation, focal func() twoknn.Point) {
	out.set("shard.partition_ms", once(func() { shard.Partition(d.main, fleetShards, shard.PolicyHash) })/1e6)
	g1, g3 := shard.SingleGroup(single), hashed.Group()
	var f twoknn.Point
	out.set("shard.select_merge_ns", benchDelta(
		func() { f = focal(); shard.Select(nil, g1, f, selectK, nil) },
		func() { shard.Select(nil, g3, f, selectK, nil) }))

	spatial, err := shard.New(d.main, fleetShards, shard.PolicySpatial, 0, shardGrid)
	if err != nil {
		panic(err)
	}
	gs := spatial.Group()
	for _, f := range d.focals {
		shard.Select(nil, gs, f, selectK, nil)
	}
	var probes int64
	for i := 0; i < fleetShards; i++ {
		probes += spatial.ShardCounters(i).Snapshot().Neighborhoods
	}
	out.set("shard.probe_skip_share", 1-share(probes, int64(fleetShards*len(d.focals))))
}

// probeWire measures the remote layer without a network: the JSON codec of
// one probe (k=10 candidates) and a select through loopback transports over
// three in-process shard servers.
func probeWire(out *outcome, d *probeData, hashed *shard.Relation, focal func() twoknn.Point) {
	tps := make([][]remote.ShardTransport, fleetShards)
	for i := range tps {
		srv := remote.NewShardServer(hashed.Shard(i), remote.ShardServerConfig{Name: "probe", Shard: i, Shards: fleetShards, Index: "grid"})
		tps[i] = []remote.ShardTransport{remote.NewLoopback(srv, "")}
	}
	members, err := remote.Dial(context.Background(), tps, remote.Options{})
	if err != nil {
		panic(err)
	}
	g := remote.NewGroup(members, nil)
	out.set("remote.loopback_select_us", bench(func() { shard.Select(nil, g, focal(), selectK, nil) })/1e3)

	var resp remote.ProbeResponse
	req := remote.ProbeRequest{X: d.focals[0].X, Y: d.focals[0].Y, K: selectK}
	if err := tps[0][0].Probe(context.Background(), remote.OpNeighborhood, &req, &resp); err != nil {
		panic(err)
	}
	reqBytes, _ := json.Marshal(&req)
	respBytes, _ := json.Marshal(&resp)
	out.set("remote.wire_bytes_per_probe", float64(len(reqBytes)+len(respBytes)))
	out.set("remote.wire_encode_ns", bench(func() {
		_, _ = json.Marshal(&req)
		_, _ = json.Marshal(&resp)
	}))
	out.set("remote.wire_decode_ns", bench(func() {
		var q remote.ProbeRequest
		var r remote.ProbeResponse
		_ = json.Unmarshal(reqBytes, &q)
		_ = json.Unmarshal(respBytes, &r)
	}))
}

// probeServer measures the server layer's codec on a select and the cost a
// write leaves for the next read: the render-table rebuild.
func probeServer(out *outcome, d *probeData, rel *twoknn.Relation) {
	b := bind{main: "probe"}
	o := op{kind: opSelect, f: d.focals[0]}
	body := b.encode(&o)
	out.set("server.decode_ns", bench(func() { _ = server.DecodeRequestBytes(body, &server.KNNSelectRequest{}) }))
	rows := make([]server.PointRow, selectK)
	for i := range rows {
		rows[i] = server.PointRow{ID: int32(i), X: d.main[i].X, Y: d.main[i].Y}
	}
	resp := server.QueryResponse{Points: rows, Count: len(rows)}
	out.set("server.encode_ns_per_row", bench(func() { _, _ = json.Marshal(&resp) })/selectK)

	srv := server.New(server.Config{})
	if err := srv.Register("probe", rel); err != nil {
		panic(err)
	}
	h := srv.Handler()
	call := func() float64 {
		t0 := time.Now()
		serveInproc(h, opPaths[opSelect], body)
		return float64(time.Since(t0).Nanoseconds())
	}
	out.set("server.bytes_per_select", float64(serveInproc(h, opPaths[opSelect], body).Body.Len()))
	if _, measured := out.metrics["server.handler_inproc_us"]; !measured {
		// A served workload has already measured the handler on its own
		// sources; elsewhere this relation stands in.
		out.set("server.handler_inproc_us", bench(func() { serveInproc(h, opPaths[opSelect], body) })/1e3)
	}
	rebuild := make([]float64, 5)
	for i := range rebuild {
		steady := call()
		ids := rel.Insert(d.main[0])
		rebuild[i] = (call() - steady) / 1e6
		rel.Remove(ids...)
		call()
	}
	out.set("server.render_rebuild_ms", median(rebuild))
}
