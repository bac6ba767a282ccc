package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
)

const (
	fleetShards = 3
	// fleetTrips is half the single-server size: every shard process
	// generates the full dataset before keeping its partition, and three of
	// them share this host's two cores during set-up.
	fleetTrips = 100000
)

// fleetCycle is one pass of the fleet's closed loop. The issue's cycle plus
// one batch, so that every workload reports batch_p50_us.
var fleetCycle = []weighted{
	{opSelect, 32}, {opTwoSelects, 8}, {opOuterJoin, 4}, {opInnerJoin, 1}, {opBatch, 1},
}

// fleet is three knnshard processes and the coordinating knnserve.
type fleet struct {
	shards []*proc
	coord  *proc
}

// startFleet starts the shard processes together, then the coordinator,
// which dials them at start-up. Set-up ends when every /healthz is green.
func startFleet(c *runCfg, sp specs) (*fleet, error) {
	f := &fleet{}
	fail := func(err error) (*fleet, error) {
		for _, p := range append(f.shards, f.coord) {
			if p != nil {
				p.abandon()
			}
		}
		return nil, err
	}
	for i := 0; i < fleetShards; i++ {
		p, err := start(filepath.Join(c.bin, "knnshard"), fmt.Sprintf("knnshard-%d", i),
			"-name", "mesh", "-data", sp.trips, "-shard", fmt.Sprint(i), "-shards", fmt.Sprint(fleetShards), "-shard-policy", "hash")
		if err != nil {
			return fail(err)
		}
		f.shards = append(f.shards, p)
	}
	urls := make([]string, fleetShards)
	for i, p := range f.shards {
		if err := p.waitHealthy(); err != nil {
			return fail(err)
		}
		urls[i] = "http://" + p.addr
	}
	var err error
	f.coord, err = start(filepath.Join(c.bin, "knnserve"), "knnserve",
		"-dataset", "mesh=remote:shards="+strings.Join(urls, ";"),
		"-dataset", "sites="+sp.sites, "-dataset", "kiosks="+sp.kiosks)
	if err != nil {
		return fail(err)
	}
	if err := f.coord.waitHealthy(); err != nil {
		return fail(err)
	}
	return f, nil
}

func (f *fleet) peakRSSMB() float64 {
	total := f.coord.peakRSSMB()
	for _, p := range f.shards {
		total += p.peakRSSMB()
	}
	return total
}

// stop drains the coordinator first (it holds connections to the shards),
// then the shards; every process must exit 0.
func (f *fleet) stop() error {
	err := f.coord.stopServer()
	for _, p := range f.shards {
		err = errors.Join(err, p.stop())
	}
	return err
}

// envelope sums the coordinator's robustness-envelope counters for the
// remote dataset: on a healthy fleet retries, hedges and failovers stay 0.
type envelope struct {
	attempts, retries, hedges, failovers int64
}

func (f *fleet) envelope() (envelope, error) {
	m, err := f.coord.metrics()
	if err != nil {
		return envelope{}, err
	}
	var e envelope
	for _, sh := range m.Datasets["mesh"].Remote {
		e.failovers += sh.Failovers
		for _, ep := range sh.Endpoints {
			e.attempts += ep.Attempts
			e.retries += ep.Retries
			e.hedges += ep.Hedges
		}
	}
	return e, nil
}

// runFleet is the fleet-scatter workload: three knnshard processes (hash
// policy) behind a coordinator knnserve that also holds local sites and
// kiosks, driven by one closed-loop client — the fleet already has more
// processes than this host has cores. The remote layer (wire codec, one
// HTTP round trip per probe per shard) and the shard merge do nearly all
// the work.
func runFleet(c *runCfg) (*outcome, error) {
	out := newOutcome()
	sp := specsFor(fleetTrips)
	r, err := newRelations("mesh", sp.trips, "sites", sp.sites, "kiosks", sp.kiosks)
	if err != nil {
		return nil, err
	}
	trips, sites, kiosks := r[0], r[1], r[2]
	src := sources{main: trips, sites: sites, innerOuter: kiosks}

	var f *fleet
	stop, err := setUp(c, out, func() (func() error, error) {
		var err error
		f, err = startFleet(c, sp)
		if err != nil {
			return nil, err
		}
		return f.stop, nil
	})
	if err != nil {
		return nil, err
	}

	b := bind{main: "mesh", sites: "sites", innerOuter: "kiosks"}
	gen := newOpGen(c.seed, points(trips), b)
	// One cycle is 46 operations and takes ~0.2s; 200 cycles outlast any window.
	ops := gen.cycleOps(fleetCycle, 46*200, true)
	sv, err := newServed(f.coord.addr, 1, ops, src)
	if err != nil {
		return nil, err
	}
	defer sv.close()

	warm := loop{ops: ops, workers: 1, dur: warmup, do: sv.do}.run()
	if c.trace {
		return traceFleet(c, out, f, sv, ops, warm.taken)
	}

	w := loop{ops: ops, offset: warm.taken, workers: 1, dur: c.dur(1), do: sv.do}.run()
	out.count("closed loop", w)
	out.latencies(w)
	out.set("ops_per_s", w.opsPerSec())
	f.checkEnvelope(out)
	out.set("peak_rss_mb", f.peakRSSMB())
	if err := stop(); err != nil {
		out.problemf("teardown: %v", err)
	}
	sv.verify(out)
	return out, nil
}

// checkEnvelope fails the run if the coordinator had to retry, hedge or
// fail over: the fleet is local and healthy, so any of them means the
// measured latency included a fault path.
func (f *fleet) checkEnvelope(out *outcome) envelope {
	e, err := f.envelope()
	if err != nil {
		out.problemf("coordinator /metrics: %v", err)
		return e
	}
	if e.retries != 0 || e.hedges != 0 || e.failovers != 0 {
		out.problemf("healthy fleet, yet %d retries, %d hedges, %d failovers", e.retries, e.hedges, e.failovers)
	}
	out.notef("coordinator sent %d probe attempts; retries %d, hedges %d, failovers %d", e.attempts, e.retries, e.hedges, e.failovers)
	return e
}
