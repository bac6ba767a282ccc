package main

import "os"

// engineCycle is one pass of the in-process closed loop.
var engineCycle = []weighted{
	{opSelect, 64}, {opTwoSelects, 16}, {opOuterJoin, 8}, {opBatch, 4},
	{opInnerJoin, 1}, {opChained, 1}, {opUnchained, 1},
}

const engineTrips = 200000

// buildEngine builds the three relations engine-shapes queries; this is the
// workload's set-up.
func buildEngine(sp specs) (sources, error) {
	r, err := newRelations("trips", sp.trips, "sites", sp.sites, "depots", sp.depots)
	if err != nil {
		return sources{}, err
	}
	return sources{main: r[0], sites: r[1], innerOuter: r[1], depots: r[2]}, nil
}

// inproc executes operations by calling the public API on this goroutine
// and keeps the marked answers for the oracle.
type inproc struct {
	src     sources
	marks   []bool
	pending []checkItem
}

func (e *inproc) do(_, i int, o *op) (func() error, error) {
	r, err := e.src.run(o)
	if err != nil {
		return nil, err
	}
	if e.marks[i%len(e.marks)] {
		e.pending = append(e.pending, checkItem{o: o, res: r})
	}
	return nil, nil
}

func (e *inproc) verify(out *outcome) {
	wrong := 0
	for _, it := range e.pending {
		want, err := e.src.oracle(it.o)
		if err != nil || !it.res.same(&want) {
			wrong++
			if wrong <= 3 {
				out.problemf("oracle: %s at %v differs from the conceptual plan (err %v)", it.o.kind, it.o.f, err)
			}
		}
	}
	out.failed += wrong
	out.notef("oracle checked %d answers, %d wrong", len(e.pending), wrong)
	e.pending = nil
}

// runEngine is the engine-shapes workload: one goroutine, closed loop, the
// public twoknn API on single relations. plan/core/locality/index/kernel do
// all the work; server, remote, shard and qcache do none.
func runEngine(c *runCfg) (*outcome, error) {
	out := newOutcome()
	sp := specsFor(engineTrips)

	var src sources
	if _, err := setUp(c, out, func() (func() error, error) {
		var err error
		src, err = buildEngine(sp)
		return nil, err // nothing to stop between repeats
	}); err != nil {
		return nil, err
	}

	gen := newOpGen(c.seed, points(src.main), bind{})
	// One cycle is 95 operations and takes tens of milliseconds; 400 cycles
	// outlast any window.
	ops := gen.cycleOps(engineCycle, 95*400, false)
	eng := &inproc{src: src, marks: markChecks(ops)}

	warm := loop{ops: ops, workers: 1, dur: warmup, do: eng.do}.run()
	eng.pending = nil

	if c.trace {
		return traceEngine(c, out, sp, eng, ops, warm.taken)
	}

	w := loop{ops: ops, offset: warm.taken, workers: 1, dur: c.dur(1), do: eng.do}.run()
	out.count("closed loop", w)
	out.latencies(w)
	out.set("ops_per_s", w.opsPerSec())
	eng.verify(out)
	out.set("peak_rss_mb", peakRSSMB(os.Getpid()))
	return out, nil
}
