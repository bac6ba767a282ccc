package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/locality"
	"repro/internal/stats"
)

// This file implements the one execution driver every join algorithm runs
// on. Work is split into units (index blocks, or chunks of a selected point
// list or of a first join's pairs); a fixed crew of workers claims units
// through an atomic cursor, each worker built by a factory that equips it
// with whatever it probes (scatter: a probe borrowed from the inner operand
// — a pooled searcher handle on a relation, one handle per shard on a
// group). Workers append their results into a private *arena* drawn from a
// process-wide pool and record one (start, end) span per unit, so the driver
// performs no per-unit result allocation at all; the per-unit spans are
// concatenated once, in unit order, which makes the result independent of
// the worker count — including order.
//
// Sequential execution is the crew of one: workers ≤ 1 runs the same worker
// on the caller's goroutine, appending straight into the result slice. No
// algorithm has a second, hand-written sequential body.
//
// A worker whose factory cannot equip it (a bounded pool at capacity)
// stands down and the remaining crew drains the units; worker 0 always
// runs, so the crew degrades gracefully rather than blocking or
// deadlocking.

// maxArenaRetain caps the capacity (in elements) of arenas returned to the
// shared pool; oversized arenas from a huge join are left to the GC instead
// of pinning their memory for the process lifetime.
const maxArenaRetain = 1 << 18

// arena is a worker-private append buffer recycled across crew runs.
type arena[T any] struct{ buf []T }

// ArenaPool recycles arenas of one element type.
type ArenaPool[T any] struct{ p sync.Pool }

func (ap *ArenaPool[T]) get() *arena[T] {
	if a, ok := ap.p.Get().(*arena[T]); ok {
		return a
	}
	return new(arena[T])
}

func (ap *ArenaPool[T]) put(a *arena[T]) {
	if a == nil || cap(a.buf) > maxArenaRetain {
		return
	}
	a.buf = a.buf[:0]
	ap.p.Put(a)
}

// The arena pools of the two join row types.
var (
	PairArenas   ArenaPool[Pair]
	TripleArenas ArenaPool[Triple]
)

// span records where one unit's results landed: in which worker's arena
// and at which offsets.
type span struct{ worker, start, end int }

// concatSpans assembles the final result slice from per-worker arenas in
// unit order — the single allocation of the output path.
func concatSpans[T any](spans []span, arenas []*arena[T]) []T {
	total := 0
	for _, sp := range spans {
		total += sp.end - sp.start
	}
	if total == 0 {
		return nil
	}
	out := make([]T, 0, total)
	for _, sp := range spans {
		out = append(out, arenas[sp.worker].buf[sp.start:sp.end]...)
	}
	return out
}

// Worker is one crew member's behavior in RunCrew: Emit appends the results
// of work unit i to dst (polling cancellation first — the driver itself
// holds nothing to poll), and Done (optional) releases what the worker
// factory acquired.
type Worker[T any] struct {
	Emit func(i int, dst []T) []T
	Done func()
}

// RunCrew runs units 0..units-1 on a crew of min(workers, units) workers
// and returns their results concatenated in unit order; nothing emitted is
// a nil slice. newWorker builds crew member w around its counter shard, on
// the member's own goroutine; returning ok == false stands the worker down.
// Worker 0 must always succeed (it may block for what it needs; the others
// must not).
//
// workers ≤ 1 means sequential: worker 0 runs on the caller's goroutine,
// counts straight into c and appends into one slice pre-sized to sizeHint
// (0: grow on demand).
//
// Panic isolation: a worker never lets a panic — cooperative cancellation
// (fault.Cancel) or a genuine crash — cross its goroutine boundary. The
// first fault is parked, the abort flag stops the rest of the crew at their
// next unit claim, and after the crew is joined (counter shards folded into
// c, every worker's Done run) the fault re-panics on the caller's goroutine
// for the public layer's recover. No partial result escapes.
func RunCrew[T any](ap *ArenaPool[T], units, workers, sizeHint int, c *stats.Counters,
	newWorker func(w int, ctr *stats.Counters) (Worker[T], bool)) []T {

	if units == 0 {
		return nil
	}
	if workers > units {
		workers = units
	}
	if workers <= 1 {
		wk, _ := newWorker(0, c)
		if wk.Done != nil {
			defer wk.Done()
		}
		var out []T
		if sizeHint > 0 {
			out = make([]T, 0, sizeHint)
		}
		for i := 0; i < units; i++ {
			out = wk.Emit(i, out)
		}
		return out
	}

	spans := make([]span, units)
	arenas := make([]*arena[T], workers)
	// Counter shards are individually allocated (not one contiguous slice)
	// so adjacent workers' atomic increments do not false-share cache
	// lines; when the caller asked for no stats, workers get nil shards
	// and the nil-receiver no-op keeps the hot loop increment-free.
	var counters []*stats.Counters
	if c != nil {
		counters = make([]*stats.Counters, workers)
		for w := range counters {
			counters[w] = new(stats.Counters)
		}
	}
	var cursor atomic.Int64
	var flt fault.Slot
	var abort atomic.Bool

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					flt.Store(fault.WrapPanic(r))
					abort.Store(true)
				}
			}()
			var ctr *stats.Counters
			if counters != nil {
				ctr = counters[w]
			}
			wk, ok := newWorker(w, ctr)
			if !ok {
				return
			}
			if wk.Done != nil {
				defer wk.Done()
			}
			a := ap.get()
			arenas[w] = a
			for !abort.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= units {
					return
				}
				start := len(a.buf)
				a.buf = wk.Emit(i, a.buf)
				spans[i] = span{worker: w, start: start, end: len(a.buf)}
			}
		}(w)
	}
	wg.Wait()

	for _, shard := range counters {
		c.Add(shard)
	}
	var out []T
	r := flt.Load()
	if r == nil {
		out = concatSpans(spans, arenas)
	}
	for _, a := range arenas {
		ap.put(a)
	}
	if r != nil {
		panic(r)
	}
	return out
}

// Chunks cuts n items into contiguous runs and yields each as [start, end),
// in order: several runs per worker, so a slow one does not straggle the
// crew; a sequential run (workers ≤ 1) keeps all items in one.
func Chunks(n, workers int, yield func(start, end int)) {
	chunk := n
	if workers > 1 {
		chunk = (n + workers*4 - 1) / (workers * 4)
	}
	for start := 0; start < n; start += chunk {
		yield(start, min(start+chunk, n))
	}
}

// scatter is RunCrew over n units of outer-side work probing one inner
// operand — the one adapter every algorithm body fans out through. Each crew
// member borrows its probe from inner (Operand.Borrow: worker 0 always gets
// one, the rest stand down when a bounded pool is at capacity) and returns
// it when the crew is joined; newEmit builds the member's emitter around
// the probe and its counter shard, so per-worker state (a scratch slice, the
// chained-join cache) lives in the closure. Every claimed unit starts with a
// cancellation checkpoint, so even units whose emission never reaches the
// probe (empty blocks) observe cancellation.
func scatter[T any](ap *ArenaPool[T], n int, inner Operand, workers, sizeHint int, c *stats.Counters,
	newEmit func(p Probe, ctr *stats.Counters) func(i int, dst []T) []T) []T {

	return RunCrew(ap, n, workers, sizeHint, c,
		func(w int, ctr *stats.Counters) (Worker[T], bool) {
			p, ok := inner.Borrow(w, ctr)
			if !ok {
				return Worker[T]{}, false
			}
			emit := newEmit(p, ctr)
			return Worker[T]{
				Emit: func(i int, dst []T) []T {
					p.Checkpoint()
					return emit(i, dst)
				},
				Done: func() { inner.Return(p) },
			}, true
		})
}

// joinUnits is the kNN-join of units against inner, as pairs: the crew body
// Join, SelectInnerJoin and SelectOuterJoin share. The optional hooks are
// what tells them apart: closerThan is the Counting prefilter
// (Probe.JoinUnit) and keep filters each neighborhood.
func joinUnits(units []Unit, inner Operand, k, workers, sizeHint int, c *stats.Counters,
	closerThan func(geom.Point) float64, keep func(geom.Point) bool) []Pair {

	return scatter(&PairArenas, len(units), inner, workers, sizeHint, c,
		func(p Probe, ctr *stats.Counters) func(int, []Pair) []Pair {
			// One emit closure per worker, not per unit: it appends to out,
			// which the unit loop below points at the worker's arena.
			var out []Pair
			emit := func(e1 geom.Point, nbr *locality.Neighborhood) {
				for _, e2 := range nbr.Points {
					if keep == nil || keep(e2) {
						out = append(out, Pair{Left: e1, Right: e2})
					}
				}
			}
			return func(i int, dst []Pair) []Pair {
				out = dst
				p.JoinUnit(units[i], k, closerThan, ctr, emit)
				dst, out = out, nil
				return dst
			}
		})
}
