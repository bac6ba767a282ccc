// Package shard partitions one logical point set across S sub-relations and
// makes the partition an operand of the paper's algorithms. It holds no
// algorithm of its own: a Group is a core.Operand, and what it contributes
// is the probe — per-shard candidate generation on each shard's own index
// and searcher pool, in-process or over the wire, followed by an exact merge
// whose tie-breaking — ascending (distance, X, Y), the repository-wide
// neighbor order — is identical to the single-relation code. Every
// per-tuple result is therefore exactly the single-relation one, and a
// query over groups returns the un-sharded evaluation's rows (in canonical
// order for join shapes, which the public layer sorts), which the
// differential oracle tests at the module root enforce across shard counts,
// partitioning policies and index families.
//
// The partition preserves global stable point IDs: shard stores carry each
// point's position in the original input (geom.PointStore.IDs), so a point
// keeps one identity no matter which shard's index holds it — the dedup and
// grouping key for gather steps and for layers above (wire formats, change
// feeds).
//
// Two partitioning policies are provided. PolicyHash scatters points by a
// multiplicative hash of their stable ID — shard sizes balance tightly and
// every shard sees the whole space, so per-shard kNN candidates come from
// everywhere (uniform per-shard work, S-fold fan-out per probe). PolicySpatial
// is an STR-style sort-tile partition — shards own compact tiles of space, so
// most neighbors of a probe live in few shards and distant shards terminate
// their local search quickly.
//
// The locality bounds of the source paper (Aly, Aref, Ouzzani; VLDB 2012)
// carry over per shard: each shard's searcher runs the unchanged two-phase
// locality construction over its own blocks, and the gather re-selects the
// global k among the ≤ S·k per-shard candidates. Exactness of that merge is
// the subset property of top-k under disjoint union: the global k nearest
// neighbors of any point are contained in the union of the per-shard k
// nearest.
package shard

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/stats"
)

// Policy selects how points are assigned to shards.
type Policy int

const (
	// PolicyHash assigns each point by a multiplicative hash of its stable
	// ID. Shard sizes are near-uniform regardless of the spatial
	// distribution.
	PolicyHash Policy = iota

	// PolicySpatial assigns points by an STR-style sort-tile partition:
	// points are sorted into vertical slabs by X, each slab into runs by Y,
	// giving every shard a compact tile of space.
	PolicySpatial
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicySpatial:
		return "spatial"
	default:
		return "hash"
	}
}

// Build constructs a spatial index over one shard's columnar store. The
// public layer injects it to select the index family (and common bounds)
// without this package importing the index constructors.
type Build func(st *geom.PointStore) (index.Index, error)

// Relation is one logical point set partitioned across shards, each shard an
// independently indexed core.Relation with its own searcher pool and an
// always-on operation counter (the per-shard stats surfaced by the public
// ShardedRelation.Snapshot).
type Relation struct {
	shards   []*core.Relation
	members  []Member
	counters []*stats.Counters
	policy   Policy
	n        int
}

// New partitions pts across nShards sub-relations under the given policy and
// builds each shard's index with build. maxSearchers > 0 bounds every
// shard's searcher pool at that many handles (the memory ceiling applies per
// shard). Stable IDs are the input positions 0..len(pts)-1, preserved
// through the partition.
func New(pts []geom.Point, nShards int, policy Policy, maxSearchers int, build Build) (*Relation, error) {
	if nShards < 1 {
		return nil, fmt.Errorf("shard: shard count must be positive, got %d", nShards)
	}
	stores := Partition(pts, nShards, policy)
	r := &Relation{
		shards:   make([]*core.Relation, nShards),
		members:  make([]Member, nShards),
		counters: make([]*stats.Counters, nShards),
		policy:   policy,
		n:        len(pts),
	}
	for i, st := range stores {
		ix, err := build(st)
		if err != nil {
			return nil, fmt.Errorf("shard: building index for shard %d/%d: %w", i, nShards, err)
		}
		r.shards[i] = core.NewRelationBounded(ix, maxSearchers)
		r.members[i] = LocalMember(r.shards[i])
		r.counters[i] = new(stats.Counters)
	}
	return r, nil
}

// Len returns the total number of points across all shards.
func (r *Relation) Len() int { return r.n }

// NumShards returns the shard count.
func (r *Relation) NumShards() int { return len(r.shards) }

// Policy returns the partitioning policy the relation was built with.
func (r *Relation) Policy() Policy { return r.policy }

// Shard returns the i-th sub-relation.
func (r *Relation) Shard(i int) *core.Relation { return r.shards[i] }

// ShardLen returns the number of points held by shard i.
func (r *Relation) ShardLen(i int) int { return r.shards[i].Len() }

// ShardCounters returns shard i's lifetime operation counters: every probe
// any query ran against that shard is accounted here (atomically, so
// concurrent queries may record while a caller snapshots).
func (r *Relation) ShardCounters(i int) *stats.Counters { return r.counters[i] }

// Bounds returns the union of the shard index bounds.
func (r *Relation) Bounds() geom.Rect {
	b := r.shards[0].Ix.Bounds()
	for _, s := range r.shards[1:] {
		b = b.Union(s.Ix.Bounds())
	}
	return b
}

// Group returns the relation's execution group.
func (r *Relation) Group() Group {
	return Group{members: r.members, counters: r.counters}
}

// Group is the executable view of one logical relation: an ordered list of
// members (a single un-sharded relation is a one-element group; a group's
// members are all in-process or all remote — see Member — and a probe over
// them walks point by point or gathers in waves accordingly) plus optional
// per-shard lifetime counters to account probes against. It is a
// core.Operand, so every algorithm body of internal/core runs over it —
// scanning its members' blocks on the outer side, holding a probe per
// worker on the inner side — and queries may mix groups and relations.
type Group struct {
	members  []Member
	counters []*stats.Counters

	// ctx bounds the group's part in one query (WithContext); nil does not.
	ctx context.Context
}

// SingleGroup wraps one core.Relation as a one-shard group.
func SingleGroup(rel *core.Relation) Group {
	return Group{members: []Member{LocalMember(rel)}}
}

// MemberGroup builds a group over explicit members (the remote layer's
// entry). counters may be nil, or one lifetime counter per member.
func MemberGroup(members []Member, counters []*stats.Counters) Group {
	return Group{members: members, counters: counters}
}

// WithContext returns the group as an operand of a query running under ctx:
// acquiring a probe waits on bounded pools no longer than ctx allows, held
// probes checkpoint it at block granularity, remote fetches and waves
// derive from it, and expiry unwinds as a fault.Cancel panic after all
// handles are released and stat deltas folded.
func (g Group) WithContext(ctx context.Context) Group {
	g.ctx = ctx
	return g
}

// NumShards returns the group's shard count.
func (g Group) NumShards() int { return len(g.members) }

// Len returns the group's total cardinality.
func (g Group) Len() int {
	n := 0
	for _, m := range g.members {
		n += m.Len()
	}
	return n
}

// Indexes implements core.Operand: every member's index, or nil over remote
// members.
func (g Group) Indexes() []index.Index {
	ixs := make([]index.Index, len(g.members))
	for i, m := range g.members {
		if ixs[i] = m.Index(); ixs[i] == nil {
			return nil
		}
	}
	return ixs
}

// Extent implements core.Operand.
func (g Group) Extent() float64 {
	area := 0.0
	for _, m := range g.members {
		area += m.Bounds().Area()
	}
	return area
}

// Units implements core.Operand: every block of every shard, in
// shard-then-block order.
func (g Group) Units() []core.Unit {
	var units []core.Unit
	for _, m := range g.members {
		units = append(units, m.OuterBlocks(g.ctx)...)
	}
	return units
}

// Borrow implements core.Operand: worker 0 blocks until it holds a full
// probe, the rest stand down if any shard's pool is at capacity.
func (g Group) Borrow(w int, c *stats.Counters) (core.Probe, bool) {
	var pr *probe
	if w == 0 {
		pr = acquire(g.ctx, g)
	} else if p, ok := tryAcquire(g.ctx, g); ok {
		pr = p
	} else {
		return nil, false
	}
	pr.ctr = c
	return pr, true
}

// Return implements core.Operand: the handles go back to their pools and
// the probe's per-shard counts fold into the counter it was borrowed with.
func (g Group) Return(p core.Probe) {
	pr := p.(*probe)
	pr.release(pr.ctr)
}

// Select evaluates σ_{k,f} over the group: the exact global k nearest
// neighbors of f, in ascending (distance, X, Y) order — byte-identical to
// the single-relation KNNSelect.
func Select(ctx context.Context, g Group, f geom.Point, k int, c *stats.Counters) []geom.Point {
	if k <= 0 {
		return nil
	}
	return core.KNNSelect(g.WithContext(ctx), f, k, c)
}

// Partition splits pts into nShards columnar stores under the given policy.
// Every output point carries its global stable ID — its position in pts —
// so identity survives the partition. The assignment is a pure function of
// (pts, nShards, policy).
func Partition(pts []geom.Point, nShards int, policy Policy) []*geom.PointStore {
	if policy == PolicySpatial {
		return partitionSpatial(pts, nShards)
	}
	return partitionHash(pts, nShards)
}

// hashID spreads a stable ID with a Fibonacci multiplicative hash; the high
// bits decide the shard so consecutive IDs do not stripe.
func hashID(id int32, nShards int) int {
	h := uint64(uint32(id)) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(nShards))
}

func partitionHash(pts []geom.Point, nShards int) []*geom.PointStore {
	sizes := make([]int, nShards)
	for i := range pts {
		sizes[hashID(int32(i), nShards)]++
	}
	stores := make([]*geom.PointStore, nShards)
	for s := range stores {
		stores[s] = geom.NewPointStore(sizes[s])
	}
	for i, p := range pts {
		stores[hashID(int32(i), nShards)].AppendWithID(p, int32(i))
	}
	return stores
}

// partitionSpatial is the STR-style sort-tile partition: points are sorted
// by (X, Y, ID) and cut into vertical slabs, each slab is sorted by
// (Y, X, ID) and cut into runs; slab j receives a share of the shard budget
// and of the points proportional to it, so shard sizes stay within one point
// of each other. Ties (co-located points) are broken by stable ID, keeping
// the partition deterministic under any input order of distinct points.
func partitionSpatial(pts []geom.Point, nShards int) []*geom.PointStore {
	n := len(pts)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	byX := func(a, b int) bool {
		if pts[a].X != pts[b].X {
			return pts[a].X < pts[b].X
		}
		if pts[a].Y != pts[b].Y {
			return pts[a].Y < pts[b].Y
		}
		return a < b
	}
	byY := func(a, b int) bool {
		if pts[a].Y != pts[b].Y {
			return pts[a].Y < pts[b].Y
		}
		if pts[a].X != pts[b].X {
			return pts[a].X < pts[b].X
		}
		return a < b
	}
	sort.Slice(ids, func(i, j int) bool { return byX(ids[i], ids[j]) })

	slabCount := int(math.Ceil(math.Sqrt(float64(nShards))))
	stores := make([]*geom.PointStore, 0, nShards)
	cumParts, start := 0, 0
	for j := 0; j < slabCount; j++ {
		parts := nShards/slabCount + boolInt(j < nShards%slabCount)
		if parts == 0 {
			continue
		}
		cumParts += parts
		end := n * cumParts / nShards
		slab := ids[start:end]
		sort.Slice(slab, func(i, j int) bool { return byY(slab[i], slab[j]) })
		for r := 0; r < parts; r++ {
			lo := len(slab) * r / parts
			hi := len(slab) * (r + 1) / parts
			st := geom.NewPointStore(hi - lo)
			for _, id := range slab[lo:hi] {
				st.AppendWithID(pts[id], int32(id))
			}
			stores = append(stores, st)
		}
		start = end
	}
	return stores
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
