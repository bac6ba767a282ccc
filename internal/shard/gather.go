package shard

import (
	"context"
	"math"
	"sync"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/locality"
)

// This file is the probe over remote members. A call to one costs a round
// trip, hundreds of microseconds whatever it carries, so the unit of remote
// work is the focal group — every point of an outer block, every selected
// point of an outer-join, every focal of a batch, or the single focal of a
// select — and the unit of remote latency is the wave: one request per
// shard, all of them in flight at once.
//
// A gather is at most two waves, and decides per focal which shards it
// needs by the rule the in-process walk applies shard after shard. With a
// focal's shards in ascending MINDIST² of their bounds, wave 1 sends it to
// the nearest one — to all that tie for nearest, which under hash
// partitioning, where every shard's bounds cover the data, is all of them.
// Wave 2 sends it to exactly the remaining shards whose MINDIST² does not
// exceed its k-th squared distance so far (or its threshold): every point
// of a shard left out is strictly farther than k known candidates. The walk
// would tighten that limit once more after each further shard, so on three
// shards a wave asks at most one shard the walk would have skipped; the
// merge is the walk's, and so is the answer.

// Per focal and shard, a slot is the focal's span among the shard's answers
// of the current gather, or one of these.
const (
	unasked int32 = -1 // the shard has not been sent the focal
	lost    int32 = -2 // it has, and failed in partial-results mode: nothing to merge, nothing to resend
)

// gatherer is a probe's state over remote members. Like the probe it is
// single-threaded, except that during a wave shard s's goroutine owns
// ans[s], errs[s] and the wave's focals[s]/thresholds[s].
type gatherer struct {
	ctx     context.Context // the probe's bound context; every wave derives its own from it
	members []GroupProber

	ans  []GroupAnswer // per shard: what its requests answered so far in this gather
	slot [][]int32     // per shard, per focal

	// The wave being assembled: per shard the indexes of the focals it is
	// sent, the focals and thresholds themselves, and what came back.
	send       [][]int32
	active     []int // the shards with something to send, ascending
	focals     [][]geom.Point
	thresholds [][]float64
	errs       []error

	views  []locality.Neighborhood // per-shard aliases handed to merge
	out    GroupAnswer             // gatherReused's answer
	nbr    locality.Neighborhood   // gatherOne's alias into out
	totals []int
	one    [1]geom.Point
}

func newGatherer(ctx context.Context, handles []Prober) *gatherer {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(handles)
	g := &gatherer{
		ctx:        ctx,
		members:    make([]GroupProber, n),
		ans:        make([]GroupAnswer, n),
		slot:       make([][]int32, n),
		send:       make([][]int32, n),
		focals:     make([][]geom.Point, n),
		thresholds: make([][]float64, n),
		errs:       make([]error, n),
		views:      make([]locality.Neighborhood, n),
	}
	for s, h := range handles {
		g.members[s] = h.(GroupProber)
	}
	return g
}

// begin resets the per-shard answers and slots for a gather over n focals.
func (g *gatherer) begin(n int) {
	for s := range g.ans {
		g.ans[s].reset()
		g.slot[s] = g.slot[s][:0]
		for i := 0; i < n; i++ {
			g.slot[s] = append(g.slot[s], unasked)
		}
	}
}

// wave sends every shard the focals assembled in send[s] as one group call
// and joins them: all calls are in flight together, the last on the calling
// goroutine. fault.OnShardProbe fires here, on the caller and in shard
// order, before anything is launched. Failures cross back as values and are
// raised only after the join — a panic inside a call first, then the first
// fail-closed error (its siblings were canceled the moment it arrived),
// then, in partial-results mode, every failed shard in shard order, whose
// focals are marked lost. Answered focals get their slots.
func (pr *probe) wave(count bool, focals []geom.Point, k int, thresholdsSq []float64) {
	g := pr.remote
	g.active = g.active[:0]
	for s, idx := range g.send {
		if len(idx) == 0 {
			continue
		}
		if fault.Armed() {
			fault.OnShardProbe(s)
		}
		g.focals[s], g.thresholds[s] = g.focals[s][:0], g.thresholds[s][:0]
		for _, i := range idx {
			g.focals[s] = append(g.focals[s], focals[i])
			if thresholdsSq != nil {
				g.thresholds[s] = append(g.thresholds[s], thresholdsSq[i])
			}
		}
		g.active = append(g.active, s)
	}
	if len(g.active) == 0 {
		return
	}

	ctx, cancel := context.WithCancel(g.ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		crash fault.Slot
		mu    sync.Mutex
		fatal = -1 // the first shard to fail closed
	)
	call := func(s int) {
		defer func() {
			if r := recover(); r != nil {
				crash.Store(fault.WrapPanic(r))
				cancel()
			}
		}()
		m := g.members[s]
		var thr []float64
		if thresholdsSq != nil {
			thr = g.thresholds[s]
		}
		if count {
			g.errs[s] = m.CountGroup(ctx, g.focals[s], k, thr, &g.ans[s], pr.deltas[s])
		} else {
			g.errs[s] = m.ProbeGroup(ctx, g.focals[s], k, thr, &g.ans[s], pr.deltas[s])
		}
		if g.errs[s] != nil && !m.Degrades() {
			mu.Lock()
			if fatal < 0 {
				fatal = s
			}
			mu.Unlock()
			cancel()
		}
	}
	last := len(g.active) - 1
	for _, s := range g.active[:last] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			call(s)
		}()
	}
	call(g.active[last])
	wg.Wait()

	if r := crash.Load(); r != nil {
		panic(r)
	}
	if fatal >= 0 {
		g.members[fatal].Raise(g.errs[fatal])
	}
	for _, s := range g.active {
		idx := g.send[s]
		g.send[s] = idx[:0]
		if err := g.errs[s]; err != nil {
			g.members[s].Raise(err)
			for _, i := range idx {
				g.slot[s][i] = lost
			}
			continue
		}
		answered := len(g.ans[s].Offs) - 1
		if count {
			answered = len(g.ans[s].Counts)
		}
		for j, i := range idx {
			g.slot[s][i] = int32(answered - len(idx) + j)
		}
	}
}

// gather appends to out the exact global k-neighborhood of every focal
// over the remote members, one span per focal, in two waves at most (see
// the file comment). A non-nil thresholdsSq is the within-threshold mode of
// neighborhoodWithinSq, per focal; a negative threshold short-circuits its
// focal to an empty span, as core.Probe.Neighborhoods defines it.
func (pr *probe) gather(focals []geom.Point, k int, thresholdsSq []float64, out *GroupAnswer) {
	g := pr.remote
	g.begin(len(focals))
	limitOf := func(i int) float64 {
		if thresholdsSq != nil {
			return thresholdsSq[i]
		}
		return math.Inf(1)
	}

	for i, f := range focals {
		pr.probeOrder(f)
		nearest := pr.minSqs[pr.order[0]]
		if nearest > limitOf(i) {
			continue
		}
		for s, d := range pr.minSqs {
			if d == nearest {
				g.send[s] = append(g.send[s], int32(i))
			}
		}
	}
	pr.wave(false, focals, k, thresholdsSq)

	for i, f := range focals {
		limit := limitOf(i)
		for s := range g.ans {
			if j := g.slot[s][i]; j >= 0 {
				g.ans[s].view(int(j), f, &g.views[s])
				if pts := g.views[s].Points; len(pts) == k {
					if b := pts[k-1].DistSq(f); b < limit {
						limit = b
					}
				}
			}
		}
		pr.probeOrder(f)
		for s, d := range pr.minSqs {
			if g.slot[s][i] == unasked && d <= limit {
				g.send[s] = append(g.send[s], int32(i))
			}
		}
	}
	pr.wave(false, focals, k, thresholdsSq)

	for i, f := range focals {
		for s := range g.ans {
			pr.nbrs[s] = &pr.emptyNbr
			if j := g.slot[s][i]; j >= 0 {
				g.ans[s].view(int(j), f, &g.views[s])
				pr.nbrs[s] = &g.views[s]
			}
		}
		out.appendNbr(pr.merge(f, k))
	}
}

// gatherReused is gather into the probe's own answer, which stays valid
// until the probe's next gather: what the paths that consume the answer on
// the spot use (a single focal, a join unit).
func (pr *probe) gatherReused(focals []geom.Point, k int, thresholdsSq []float64) *GroupAnswer {
	out := &pr.remote.out
	out.reset()
	pr.gather(focals, k, thresholdsSq, out)
	return out
}

// gatherOne is gather for a single focal: the remote form of neighborhood
// (thresholdsSq nil) and of neighborhoodWithinSq (the focal's one
// threshold).
func (pr *probe) gatherOne(p geom.Point, k int, thresholdsSq []float64) *locality.Neighborhood {
	g := pr.remote
	g.one[0] = p
	pr.gatherReused(g.one[:], k, thresholdsSq).view(0, p, &g.nbr)
	return &g.nbr
}

// gatherCounts is countStrictlyCloser for a whole focal group over remote
// members, in one wave: per focal, the sum of the shards' conservative
// counts of points strictly closer than its squared threshold. A shard
// whose MINDIST² is not below the threshold holds no such point and is not
// asked. The walk's early exit at k has no counterpart — the sum only ever
// decides "at least k", which more shards cannot turn false. The result is
// valid until the probe's next gather.
func (pr *probe) gatherCounts(focals []geom.Point, k int, thresholdsSq []float64) []int {
	g := pr.remote
	g.begin(len(focals))
	for i, f := range focals {
		for s, h := range pr.handles {
			if h.Bounds().MinDistSq(f) < thresholdsSq[i] {
				g.send[s] = append(g.send[s], int32(i))
			}
		}
	}
	pr.wave(true, focals, k, thresholdsSq)

	g.totals = g.totals[:0]
	for i := range focals {
		total := 0
		for s := range g.ans {
			if j := g.slot[s][i]; j >= 0 {
				total += g.ans[s].Counts[j]
			}
		}
		g.totals = append(g.totals, total)
	}
	return g.totals
}
