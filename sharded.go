package twoknn

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/shard"
)

// ShardPolicy selects how NewShardedRelation partitions points across
// shards.
type ShardPolicy int

// The available partitioning policies.
const (
	// HashSharding scatters points by a hash of their stable ID: shard sizes
	// balance tightly regardless of the spatial distribution, and every
	// shard covers the whole space. The right default for skewed data and
	// for workloads dominated by joins whose outer tuples spread evenly.
	HashSharding ShardPolicy = iota

	// SpatialSharding tiles space STR-style (sort by X into slabs, by Y into
	// runs): each shard owns a compact tile, so the neighbors of a probe
	// concentrate in few shards and the other shards' searches terminate
	// quickly. The right choice when queries have locality and data is not
	// heavily skewed.
	SpatialSharding
)

// String implements fmt.Stringer.
func (p ShardPolicy) String() string { return p.policy().String() }

func (p ShardPolicy) policy() shard.Policy {
	if p == SpatialSharding {
		return shard.PolicySpatial
	}
	return shard.PolicyHash
}

// WithShardPolicy selects the partitioning policy for NewShardedRelation
// (default HashSharding). NewRelation ignores it.
func WithShardPolicy(p ShardPolicy) RelationOption {
	return func(c *relationConfig) { c.shardPolicy = p }
}

// ErrInvalidShardCount is returned by NewShardedRelation for a non-positive
// shard count.
var ErrInvalidShardCount = errors.New("twoknn: shard count must be positive")

// ShardedRelation is an immutable, indexed snapshot of points partitioned
// across shards, each shard owning its own columnar point store, spatial
// index and searcher pool. It is a drop-in query operand: every query
// function accepts a *ShardedRelation wherever it accepts a *Relation (the
// Source interface), and any mix of the two.
//
// The query algorithms are the single-relation ones, unchanged: the outer
// side of a join scans the shards' blocks one shard after the other, and
// every neighborhood the inner side is asked for is scatter/gather —
// per-shard candidate generation, then an exact merge (global k re-selection
// by the repository-wide (distance, X, Y) tie order) — so results are
// exactly the single-relation answers, under every plan option. Join-shaped
// results come back in canonical SortPairs/SortTriples order; KNNSelect and
// TwoSelects keep the single-relation order as-is. Global stable point IDs
// (input positions) are preserved across the partition.
//
// Like *Relation, a ShardedRelation is safe for concurrent use: queries
// borrow per-shard searcher handles from each shard's pool. WithMaxSearchers
// applies per shard.
type ShardedRelation struct {
	name   string
	kind   IndexKind
	policy ShardPolicy
	bounds Rect
	sh     *shard.Relation

	// epoch is the data-version number of the partitioned snapshot; see
	// Source.Epoch.
	epoch *atomic.Uint64
}

// NewShardedRelation indexes pts under the given name, partitioned across
// shards sub-relations. Options are shared with NewRelation — WithIndexKind
// and WithBlockCapacity configure every shard's index, WithMaxSearchers
// bounds every shard's searcher pool, and WithShardPolicy picks the
// partition.
//
// WithBounds fixes the indexed region of every shard, exactly as it fixes a
// single Relation's (required for empty relations, useful for a common
// block geometry). Without it, each non-empty shard's index fits its own
// point extent — under SpatialSharding a shard's blocks then tile its tile,
// not the whole region, which is what keeps distant shards cheap to probe.
// Query results never depend on block geometry, only cost does; the
// differential oracle suite holds across both layouts.
//
// Points with NaN or infinite coordinates are refused as by NewRelation.
func NewShardedRelation(name string, pts []Point, shards int, opts ...RelationOption) (*ShardedRelation, error) {
	cfg := relationConfig{kind: GridIndex, capacity: 64}
	for _, o := range opts {
		o(&cfg)
	}
	if shards < 1 {
		return nil, fmt.Errorf("%w: got %d (name %q)", ErrInvalidShardCount, shards, name)
	}
	if len(pts) == 0 && cfg.bounds.Area() <= 0 {
		return nil, fmt.Errorf("%w (name %q)", ErrEmptyRelation, name)
	}
	if err := checkFinite(pts); err != nil {
		return nil, fmt.Errorf("%w (name %q)", err, name)
	}
	bounds := cfg.bounds
	if bounds.Area() <= 0 {
		bounds = geom.RectFromPoints(pts)
	}
	build := shardIndexBuilder(cfg.kind, cfg.capacity, cfg.bounds, bounds)
	sh, err := shard.New(pts, shards, cfg.shardPolicy.policy(), cfg.maxSearchers, build)
	if err != nil {
		return nil, fmt.Errorf("twoknn: building %s-sharded %s relation %q: %w", cfg.shardPolicy, cfg.kind, name, err)
	}
	return &ShardedRelation{name: name, kind: cfg.kind, policy: cfg.shardPolicy, bounds: bounds, sh: sh, epoch: newEpoch()}, nil
}

// Epoch implements Source; see Relation.Epoch.
func (sr *ShardedRelation) Epoch() uint64 { return sr.epoch.Load() }

// Invalidate bumps the partitioned snapshot's epoch; see
// Relation.Invalidate.
func (sr *ShardedRelation) Invalidate() { sr.epoch.Add(1) }

// shardIndexBuilder returns the per-shard index constructor for the kind:
// buildIndex, under a per-shard choice of bounds. An explicit relation
// bounds applies to every shard; otherwise non-empty shards fit their own
// extent (the constructors derive an inflated MBR when given no bounds) and
// empty shards (points fewer than shards, or heavy skew) fall back to the
// derived relation-wide bounds so they index cleanly.
func shardIndexBuilder(kind IndexKind, capacity int, explicit, fallback Rect) shard.Build {
	return func(st *geom.PointStore) (index.Index, error) {
		bounds := explicit // zero: the constructor fits the shard's own extent
		if bounds.Area() <= 0 && st.Len() == 0 {
			bounds = fallback
		}
		return buildIndex(st, kind, capacity, bounds)
	}
}

// Name returns the relation's name.
func (sr *ShardedRelation) Name() string { return sr.name }

// Len returns the total number of points across all shards.
func (sr *ShardedRelation) Len() int { return sr.sh.Len() }

// Bounds returns the indexed region: the explicit WithBounds rectangle when
// one was given, otherwise the exact bounding box of the input points. (A
// *Relation built without explicit bounds reports a slightly inflated box —
// its index pads the extent — so the two backings' derived Bounds differ at
// the edges; explicit WithBounds is reported identically by both.)
// Individual shard indexes may cover tighter sub-regions, see
// NewShardedRelation.
func (sr *ShardedRelation) Bounds() Rect { return sr.bounds }

// IndexKind returns the index implementation every shard was built with.
func (sr *ShardedRelation) IndexKind() IndexKind { return sr.kind }

// Policy returns the partitioning policy.
func (sr *ShardedRelation) Policy() ShardPolicy { return sr.policy }

// NumShards returns the shard count.
func (sr *ShardedRelation) NumShards() int { return sr.sh.NumShards() }

// ShardLens returns the per-shard cardinalities, in shard order.
func (sr *ShardedRelation) ShardLens() []int {
	out := make([]int, sr.sh.NumShards())
	for i := range out {
		out[i] = sr.sh.ShardLen(i)
	}
	return out
}

// execGroup implements Source.
func (sr *ShardedRelation) execGroup() shard.Group { return sr.sh.Group() }

// singleRelation implements Source.
func (sr *ShardedRelation) singleRelation() *Relation { return nil }

// layout implements Source.
func (sr *ShardedRelation) layout() string {
	return fmt.Sprintf("%d %s shard(s)", sr.NumShards(), sr.policy)
}

// srcNil implements Source.
func (sr *ShardedRelation) srcNil() bool { return sr == nil }

// KNNSelect returns the k points of the sharded relation closest to the
// focal point f (σ_{k,f}): every shard contributes its local top-k and the
// gather re-selects the global k, so the result — including its ascending
// (distance, X, Y) order — is byte-identical to the single-relation
// KNNSelect over the same points. It errors on a nil receiver
// (ErrNilRelation) and non-positive k (ErrNonPositiveK).
func (sr *ShardedRelation) KNNSelect(f Point, k int, opts ...QueryOption) ([]Point, error) {
	return KNNSelect(sr, f, k, opts...)
}

// Points returns a copy of all points across shards, shard 0's storage order
// first, then shard 1's, and so on — the sharded counterpart of
// Relation.Points. Parallel to PointIDs.
func (sr *ShardedRelation) Points() []Point {
	out := make([]Point, 0, sr.sh.Len())
	for i := 0; i < sr.sh.NumShards(); i++ {
		out = append(out, sr.sh.Shard(i).Points()...)
	}
	return out
}

// PointIDs returns the global stable IDs of all points, parallel to
// Points(). Stable IDs are input positions and survive the partition, so a
// dataset registry (e.g. a query server) can name any point of any shard
// independently of where the partition placed it.
func (sr *ShardedRelation) PointIDs() []int32 {
	out := make([]int32, 0, sr.sh.Len())
	for i := 0; i < sr.sh.NumShards(); i++ {
		out = append(out, sr.sh.Shard(i).Store().IDs...)
	}
	return out
}

// OutstandingSearchers returns the number of searcher handles currently out
// across all shard pools — a point-in-time snapshot for leak assertions and
// load metrics. A relation with no query in flight reports 0, including
// after cancelled, deadline-expired or panicked queries.
func (sr *ShardedRelation) OutstandingSearchers() int {
	total := 0
	for i := 0; i < sr.sh.NumShards(); i++ {
		total += sr.sh.Shard(i).Pool().Outstanding()
	}
	return total
}

// ShardStats is one shard's slice of a ShardedRelation.Snapshot: its
// cardinality and the operation counters accumulated over every query that
// probed the shard since construction.
type ShardStats struct {
	// Shard is the shard's position, 0 ≤ Shard < NumShards().
	Shard int

	// Points is the number of points the shard holds.
	Points int

	// Ops are the shard's lifetime operation counters (a point-in-time
	// snapshot; concurrent queries may keep recording).
	Ops Stats
}

// Snapshot returns the per-shard lifetime operation counters and their
// aggregate. It is safe to call while queries are in flight: each shard's
// counters are read atomically (per-shard consistency; the aggregate is the
// sum of the per-shard snapshots). The per-shard series exposes partition
// balance — a shard whose counters run hot is where the next split goes.
func (sr *ShardedRelation) Snapshot() (perShard []ShardStats, total Stats) {
	perShard = make([]ShardStats, sr.sh.NumShards())
	for i := range perShard {
		snap := sr.sh.ShardCounters(i).Snapshot()
		perShard[i] = ShardStats{Shard: i, Points: sr.sh.ShardLen(i), Ops: snap}
		total.Add(&snap)
	}
	return perShard, total
}
