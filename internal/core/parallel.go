package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/stats"
)

// This file implements the one execution driver every join algorithm runs
// on — the algorithms of this package and the scatter/gather drivers of
// internal/shard alike. Work is split into units (index blocks, or chunks
// of a selected point list or of a first join's pairs); a fixed crew of
// workers claims units through an atomic cursor, each worker built by a
// factory that equips it with whatever it probes (a pooled searcher handle
// here, one handle per shard there). Workers append their results into a
// private *arena* drawn from a process-wide pool and record one (start,
// end) span per unit, so the driver performs no per-unit result allocation
// at all; the per-unit spans are concatenated once, in unit order, which
// makes the result independent of the worker count — including order.
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

// tupleWorker is one crew member's per-tuple behavior in runGroups: emit
// produces the results of one outer tuple, gate (optional) admits or skips
// a whole group before its points are emitted — both run on the worker's
// handle and counter shard — and done (optional) releases any extra
// resources the worker factory acquired.
type tupleWorker[T any] struct {
	emit func(h *Relation, e1 geom.Point, dst []T, ctr *stats.Counters) []T
	gate func(h *Relation, gi int, ctr *stats.Counters) bool
	done func()
}

// tupleGroup is one unit of outer-tuple work: either a block span (scanned
// over the store's flat X/Y columns, no point materialization up front) or
// an explicit point list (chunks of a selected point set).
type tupleGroup struct {
	blk *index.Block
	pts []geom.Point
}

// runGroups is RunCrew over outer-tuple groups probing one inner relation.
// newWorker builds each crew member's behavior around a searcher handle on
// inner — worker 0 (primary) runs on the caller's own handle, the rest
// borrow from inner's pool with TryAcquire and stand down when a bounded
// pool is at capacity — and may acquire extra per-worker state (more
// handles, caches) released via tupleWorker.done. Every claimed group
// starts with a cancellation checkpoint, so even groups whose emission
// never probes the searcher (gated or empty blocks) observe cancellation.
func runGroups[T any](ap *ArenaPool[T], groups []tupleGroup, inner *Relation, workers, sizeHint int,
	c *stats.Counters,
	newWorker func(h *Relation, primary bool, ctr *stats.Counters) (tupleWorker[T], bool)) []T {

	return RunCrew(ap, len(groups), workers, sizeHint, c,
		func(w int, ctr *stats.Counters) (Worker[T], bool) {
			h := inner
			if w > 0 {
				hh, err := inner.TryAcquire()
				if err != nil {
					return Worker[T]{}, false
				}
				// Extra handles inherit the caller handle's cancellation
				// binding, so every crew member checkpoints the same ctx.
				hh.S.Bind(inner.S.Context())
				h = hh
			}
			wk, ok := newWorker(h, w == 0, ctr)
			if !ok {
				if w > 0 {
					h.Release()
				}
				return Worker[T]{}, false
			}
			crew := Worker[T]{Emit: func(gi int, dst []T) []T {
				h.Checkpoint()
				if wk.gate != nil && !wk.gate(h, gi, ctr) {
					return dst
				}
				g := groups[gi]
				if g.blk == nil {
					for _, e1 := range g.pts {
						dst = wk.emit(h, e1, dst, ctr)
					}
					return dst
				}
				xs, ys := g.blk.XYs()
				for i := range xs {
					dst = wk.emit(h, geom.Point{X: xs[i], Y: ys[i]}, dst, ctr)
				}
				return dst
			}}
			if w > 0 || wk.done != nil {
				crew.Done = func() {
					if wk.done != nil {
						wk.done()
					}
					if w > 0 {
						h.Release()
					}
				}
			}
			return crew, true
		})
}

// emitGroups is runGroups for the common case of stateless workers: one
// per-point emit (and optional per-group gate) shared by the whole crew.
func emitGroups[T any](ap *ArenaPool[T], groups []tupleGroup, inner *Relation, workers, sizeHint int,
	c *stats.Counters,
	gate func(h *Relation, gi int, ctr *stats.Counters) bool,
	emit func(h *Relation, e1 geom.Point, dst []T, ctr *stats.Counters) []T) []T {

	return runGroups(ap, groups, inner, workers, sizeHint, c,
		func(*Relation, bool, *stats.Counters) (tupleWorker[T], bool) {
			return tupleWorker[T]{emit: emit, gate: gate}, true
		})
}

// pointGroups exposes a block list as emission groups (one span per
// block), preserving block order. No points are materialized; workers scan
// the spans.
func pointGroups(blocks []*index.Block) []tupleGroup {
	groups := make([]tupleGroup, len(blocks))
	for i, b := range blocks {
		groups[i] = tupleGroup{blk: b}
	}
	return groups
}

// blockGroups is pointGroups over the relation's full block partition —
// the same order ForEachPoint scans.
func blockGroups(rel *Relation) []tupleGroup {
	return pointGroups(rel.Ix.Blocks())
}

// pointChunks splits a point list into Chunks groups.
func pointChunks(pts []geom.Point, workers int) []tupleGroup {
	var groups []tupleGroup
	Chunks(len(pts), workers, func(start, end int) {
		groups = append(groups, tupleGroup{pts: pts[start:end]})
	})
	return groups
}
