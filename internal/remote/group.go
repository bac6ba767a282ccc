package remote

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/stats"
)

// Collector accumulates per-shard failures for partial-results mode. When a
// query's context carries one (WithCollector), a remote shard whose replica
// set is exhausted degrades gracefully — the shard is recorded missing and
// contributes nothing — instead of failing the query. Without a collector
// the failure unwinds fail-closed: results are exact or the query errors.
type Collector struct {
	mu   sync.Mutex
	errs map[int]error
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{errs: make(map[int]error)} }

// Record notes shard's failure (the first error per shard is kept).
func (c *Collector) Record(shard int, err error) {
	c.mu.Lock()
	if _, ok := c.errs[shard]; !ok {
		c.errs[shard] = err
	}
	c.mu.Unlock()
}

// Missing returns the recorded shard indexes, ascending.
func (c *Collector) Missing() []int {
	c.mu.Lock()
	out := make([]int, 0, len(c.errs))
	for s := range c.errs {
		out = append(out, s)
	}
	c.mu.Unlock()
	sort.Ints(out)
	return out
}

// Errors returns a copy of the per-shard failures.
func (c *Collector) Errors() map[int]error {
	c.mu.Lock()
	out := make(map[int]error, len(c.errs))
	for s, e := range c.errs {
		out[s] = e
	}
	c.mu.Unlock()
	return out
}

// Empty reports whether no shard failed.
func (c *Collector) Empty() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.errs) == 0
}

type collectorKey struct{}

// WithCollector attaches c to ctx, opting the queries run under ctx into
// partial results over remote groups.
func WithCollector(ctx context.Context, c *Collector) context.Context {
	return context.WithValue(ctx, collectorKey{}, c)
}

// CollectorFrom returns ctx's collector, or nil (fail-closed mode).
func CollectorFrom(ctx context.Context) *Collector {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(collectorKey{}).(*Collector)
	return c
}

// Member is one remote shard as a scatter/gather group member: probes and
// block fetches travel through the shard's ReplicaSet envelope. It caches
// the shard's identity card and block headers from dial time (the served
// snapshot is immutable).
type Member struct {
	rs     *ReplicaSet
	info   Info
	bounds geom.Rect
	blocks []BlockHeader
}

// NewMember dials one shard's replica set: fetches and validates its
// identity card and block headers through the envelope.
func NewMember(ctx context.Context, shardIdx int, transports []ShardTransport, opts Options) (*Member, error) {
	if len(transports) == 0 {
		return nil, fmt.Errorf("remote: shard %d: no transports", shardIdx)
	}
	rs := NewReplicaSet(shardIdx, transports, opts)
	info, err := rs.Info(ctx)
	if err != nil {
		return nil, fmt.Errorf("remote: shard %d: fetching info: %w", shardIdx, err)
	}
	blocks, err := rs.Blocks(ctx)
	if err != nil {
		return nil, fmt.Errorf("remote: shard %d: fetching blocks: %w", shardIdx, err)
	}
	n := 0
	for _, b := range blocks {
		n += b.Count
	}
	if n != info.Len {
		return nil, fmt.Errorf("remote: shard %d: block headers cover %d points, info says %d", shardIdx, n, info.Len)
	}
	return &Member{rs: rs, info: *info, bounds: info.Bounds.rect(), blocks: blocks}, nil
}

// Dial builds the members of a remote group: transports[s] is shard s's
// replica list (preferred first). Each shard's identity card is validated
// against the layout, so a mis-wired endpoint fails at dial time rather
// than merging wrong candidates.
func Dial(ctx context.Context, transports [][]ShardTransport, opts Options) ([]*Member, error) {
	if len(transports) == 0 {
		return nil, fmt.Errorf("remote: no shards")
	}
	members := make([]*Member, len(transports))
	for s, reps := range transports {
		m, err := NewMember(ctx, s, reps, opts)
		if err != nil {
			return nil, err
		}
		if m.info.Shards != 0 {
			if m.info.Shards != len(transports) {
				return nil, fmt.Errorf("remote: shard %d reports a %d-shard layout, coordinator has %d",
					s, m.info.Shards, len(transports))
			}
			if m.info.Shard != s {
				return nil, fmt.Errorf("remote: endpoint dialed as shard %d identifies as shard %d", s, m.info.Shard)
			}
		}
		members[s] = m
	}
	return members, nil
}

// NewGroup assembles the dialed members into an execution group — an
// operand of every algorithm, like any shard.Group. counters may be nil, or
// one lifetime counter per shard (probe deltas — including the shards'
// wire-reported stats — fold into them).
func NewGroup(members []*Member, counters []*stats.Counters) shard.Group {
	ms := make([]shard.Member, len(members))
	for i, m := range members {
		ms[i] = m
	}
	return shard.MemberGroup(ms, counters)
}

// Info returns the shard's identity card from dial time.
func (m *Member) Info() Info { return m.info }

// NetStats snapshots the shard's envelope counters.
func (m *Member) NetStats() ShardNetStats { return m.rs.NetStats() }

// Len implements shard.Member.
func (m *Member) Len() int { return m.info.Len }

// Bounds implements shard.Member.
func (m *Member) Bounds() geom.Rect { return m.bounds }

// Index implements shard.Member: a remote shard's index lives in its own
// process.
func (m *Member) Index() index.Index { return nil }

// OuterBlocks implements shard.Member: the cached headers become claimable
// units whose points are fetched through the envelope only when a worker
// actually scans them — the Block-Marking prune therefore saves network
// transfer, not just CPU.
func (m *Member) OuterBlocks(ctx context.Context) []core.Unit {
	if ctx == nil {
		ctx = context.Background()
	}
	coll := CollectorFrom(ctx)
	out := make([]core.Unit, len(m.blocks))
	for i, h := range m.blocks {
		blockIdx := i
		out[i] = core.Unit{
			Span: h.Span.rect(),
			N:    h.Count,
			Fetch: func() []geom.Point {
				return m.fetchBlock(ctx, coll, blockIdx)
			},
		}
	}
	return out
}

// fetchBlock materializes one block's points, degrading to an empty block
// in partial mode and failing closed otherwise.
func (m *Member) fetchBlock(ctx context.Context, coll *Collector, block int) []geom.Point {
	resp, err := m.rs.BlockPoints(ctx, block)
	if err != nil {
		m.fail(ctx, coll, err)
		return nil
	}
	pts := make([]geom.Point, len(resp.Xs))
	for i := range pts {
		pts[i] = geom.Point{X: resp.Xs[i], Y: resp.Ys[i]}
	}
	return pts
}

// FetchAllPoints materializes every block's points and stable IDs through
// the envelope — the render-table path of a serving coordinator (the query
// path fetches blocks lazily through OuterBlocks instead).
func (m *Member) FetchAllPoints(ctx context.Context) ([]geom.Point, []int32, error) {
	pts := make([]geom.Point, 0, m.info.Len)
	ids := make([]int32, 0, m.info.Len)
	for i := range m.blocks {
		resp, err := m.rs.BlockPoints(ctx, i)
		if err != nil {
			return nil, nil, err
		}
		for j := range resp.Xs {
			pts = append(pts, geom.Point{X: resp.Xs[j], Y: resp.Ys[j]})
		}
		ids = append(ids, resp.IDs...)
	}
	return pts, ids, nil
}

// fail routes a remote failure: a dead query context unwinds as
// cancellation, a collector records the shard missing and degrades, and
// otherwise the failure unwinds fail-closed with the envelope's error.
func (m *Member) fail(ctx context.Context, coll *Collector, err error) {
	if ctx != nil && ctx.Err() != nil {
		panic(&fault.Cancel{Err: ctx.Err()})
	}
	if coll != nil {
		coll.Record(m.rs.shard, err)
		return
	}
	panic(&fault.Fail{Err: err})
}

// Acquire implements shard.Member.
func (m *Member) Acquire() shard.Prober {
	return &remoteProber{m: m, ctx: context.Background()}
}

// AcquireCtx implements shard.Member. Remote probers are plain values (the
// shard process owns the real searcher pool), so acquisition never blocks.
func (m *Member) AcquireCtx(ctx context.Context) (shard.Prober, error) {
	p := &remoteProber{m: m}
	p.Bind(ctx)
	return p, nil
}

// TryAcquire implements shard.Member.
func (m *Member) TryAcquire() (shard.Prober, error) { return m.Acquire(), nil }

// remoteProber is one borrowed probe handle over a remote shard: a
// shard.GroupProber, whose unit of work is the focal group.
type remoteProber struct {
	m    *Member
	ctx  context.Context
	coll *Collector
}

// Bounds implements shard.Prober.
func (p *remoteProber) Bounds() geom.Rect { return p.m.bounds }

// Bind implements shard.Prober.
func (p *remoteProber) Bind(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	p.ctx = ctx
	p.coll = CollectorFrom(ctx)
}

// Checkpoint implements shard.Prober.
func (p *remoteProber) Checkpoint() {
	if err := p.ctx.Err(); err != nil {
		panic(&fault.Cancel{Err: err})
	}
}

// Release implements shard.Prober.
func (p *remoteProber) Release() {}

// Local implements shard.Prober.
func (p *remoteProber) Local() *core.Relation { return nil }

// ProbeGroup implements shard.GroupProber.
func (p *remoteProber) ProbeGroup(ctx context.Context, focals []geom.Point, k int, thresholdsSq []float64,
	ans *shard.GroupAnswer, c *stats.Counters) error {

	op := OpNeighborhood
	if thresholdsSq != nil {
		op = OpWithin
	}
	return p.probeGroup(ctx, op, focals, k, thresholdsSq, ans, c)
}

// CountGroup implements shard.GroupProber. In partial mode a missing shard
// counts nothing — the conservative direction: the Counting prune then
// never skips an outer point it should have examined.
func (p *remoteProber) CountGroup(ctx context.Context, focals []geom.Point, k int, thresholdsSq []float64,
	ans *shard.GroupAnswer, c *stats.Counters) error {

	return p.probeGroup(ctx, OpCount, focals, k, thresholdsSq, ans, c)
}

// probeGroup sends focals through the shard's envelope, MaxGroupFocals per
// request, one request after the other — a query keeps at most one request
// per shard in flight — appending each response to ans. On failure ans is
// cut back to what it held.
func (p *remoteProber) probeGroup(ctx context.Context, op Op, focals []geom.Point, k int, thresholdsSq []float64,
	ans *shard.GroupAnswer, c *stats.Counters) error {

	held := *ans
	for len(focals) > 0 {
		n := min(len(focals), MaxGroupFocals)
		req := ProbeRequest{X: focals[0].X, Y: focals[0].Y, K: k}
		if thresholdsSq != nil {
			req.ThresholdSq = thresholdsSq[0]
		}
		if n > 1 {
			req.Xs, req.Ys = make([]float64, n-1), make([]float64, n-1)
			for i, f := range focals[1:n] {
				req.Xs[i], req.Ys[i] = f.X, f.Y
			}
			if thresholdsSq != nil {
				req.ThresholdsSq = thresholdsSq[1:n]
			}
		}
		resp, err := p.m.rs.Probe(ctx, op, &req)
		if err != nil {
			*ans = held
			return err
		}
		foldStats(c, resp.Stats)
		if op == OpCount {
			resp.appendCounts(n, ans)
		} else {
			resp.appendSpans(n, ans)
		}
		focals = focals[n:]
		if thresholdsSq != nil {
			thresholdsSq = thresholdsSq[n:]
		}
	}
	return nil
}

// Degrades implements shard.GroupProber.
func (p *remoteProber) Degrades() bool { return p.coll != nil }

// Raise implements shard.GroupProber.
func (p *remoteProber) Raise(err error) { p.m.fail(p.ctx, p.coll, err) }

// foldStats merges a probe's wire-reported counter delta into c, so
// WithStats accounts shard-side work identically across layouts.
func foldStats(c *stats.Counters, w WireStats) {
	if c == nil {
		return
	}
	var d stats.Counters
	d.Neighborhoods = w.Neighborhoods
	d.BlocksScanned = w.BlocksScanned
	d.PointsCompared = w.PointsCompared
	d.BlocksPruned = w.BlocksPruned
	d.OuterSkipped = w.OuterSkipped
	c.Add(&d)
}
