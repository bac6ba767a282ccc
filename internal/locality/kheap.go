package locality

import (
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/kernel"
)

// spanScratch holds the per-scanner buffers the batched kernel paths of a
// span scan need: one squared-distance lane per point and one qualifying-lane
// index per point. A scratch is shared across queries but not across
// goroutines; each Searcher keeps one.
type spanScratch struct {
	dists  []float64 // batched-kernel scratch: per-lane squared distances
	selIdx []int32   // batched-kernel scratch: qualifying lane indices
}

// scanSpan feeds the points of b into the selection heap. Spans at or above
// the batched-kernel grain (kernel.BatchGrain: profitable span length for
// the dispatched implementation, +Inf-like when only the scalar reference
// is active) go through the batched kernel layer in two phases on the heap
// state; shorter spans keep the original fused scalar loop, whose per-lane
// cost nothing can beat at that size. All paths produce bit-identical heap
// states — the kernels perform the scalar loop's exact float64 operations —
// so query answers do not depend on the route taken. Returns the number of
// points examined.
func (h *maxKHeap) scanSpan(b *index.Block, p geom.Point, sc *spanScratch) int {
	xs, ys := b.XYs()
	if len(xs) < kernel.BatchGrain() {
		for i, x := range xs {
			dx := x - p.X
			dy := ys[i] - p.Y
			dSq := dx*dx + dy*dy
			if len(h.items) >= h.k && dSq > h.items[0].dSq {
				continue
			}
			h.offer(geom.Point{X: x, Y: ys[i]}, dSq)
		}
		return len(xs)
	}
	if len(h.items) >= h.k {
		// Heap already full: compress-store the only lanes at or below the
		// bound at span entry. The bound only tightens within a span, so
		// this is a superset of the fused loop's survivors, and offer's own
		// ordering test filters the rest — the final heap is identical.
		if cap(sc.selIdx) < len(xs) {
			sc.selIdx = make([]int32, len(xs))
		}
		m := b.SelectWithinSq(p, h.boundSq(), sc.selIdx[:len(xs)])
		for _, lane := range sc.selIdx[:m] {
			x, y := xs[lane], ys[lane]
			dx := x - p.X
			dy := y - p.Y
			h.offer(geom.Point{X: x, Y: y}, dx*dx+dy*dy)
		}
		return len(xs)
	}
	// Heap still filling: batch the whole span's distances into scratch,
	// then offer in order, rechecking the running k-th distance as the heap
	// fills exactly like the fused loop.
	if cap(sc.dists) < len(xs) {
		sc.dists = make([]float64, len(xs))
	}
	dists := sc.dists[:len(xs)]
	b.DistSqInto(p, dists)
	for i, dSq := range dists {
		if len(h.items) >= h.k && dSq > h.items[0].dSq {
			continue
		}
		h.offer(geom.Point{X: xs[i], Y: ys[i]}, dSq)
	}
	return len(xs)
}
