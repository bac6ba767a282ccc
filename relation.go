package twoknn

import (
	"sync/atomic"

	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/index/grid"
	"repro/internal/index/overlay"
	"repro/internal/index/quadtree"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/stats"
)

// Point is a location in the 2-D Euclidean plane. It is a comparable value
// type usable as a map key.
type Point = geom.Point

// Rect is a closed axis-aligned rectangle, used for range predicates and
// bounds.
type Rect = geom.Rect

// NewRect builds a rectangle from two corners, normalizing coordinate order.
func NewRect(x1, y1, x2, y2 float64) Rect { return geom.NewRect(x1, y1, x2, y2) }

// Pair is one kNN-join result row: Right is among the k nearest neighbors
// of Left in the join's inner relation.
type Pair = core.Pair

// Triple is one result row of a two-join query over relations A, B and C.
type Triple = core.Triple

// Stats collects per-query operation counters (neighborhood computations,
// blocks scanned/pruned, cache hits); pass a *Stats via WithStats.
type Stats = stats.Counters

// IndexKind selects the spatial index a Relation is built on. The query
// algorithms are index-agnostic (paper, Section 2); the grid is the paper's
// experimental default.
type IndexKind int

// The available index kinds.
const (
	// GridIndex is a uniform grid — the paper's experimental index.
	GridIndex IndexKind = iota

	// QuadtreeIndex is a PR quadtree.
	QuadtreeIndex
)

// indexKindNames spells every index kind once, in IndexKind order: String
// and ParseIndexKind both read it.
var indexKindNames = [...]string{GridIndex: "grid", QuadtreeIndex: "quadtree"}

// String implements fmt.Stringer.
func (k IndexKind) String() string {
	if k < 0 || int(k) >= len(indexKindNames) {
		return indexKindNames[GridIndex]
	}
	return indexKindNames[k]
}

// ParseIndexKind parses an index-kind flag value: the String form of one of
// the index kinds.
func ParseIndexKind(s string) (IndexKind, error) {
	for k, name := range indexKindNames {
		if name == s {
			return IndexKind(k), nil
		}
	}
	return 0, fmt.Errorf("unknown index kind %q (want %s)", s, strings.Join(indexKindNames[:], " or "))
}

// ErrEmptyRelation is returned when a Relation is built over no points
// without explicit bounds.
var ErrEmptyRelation = errors.New("twoknn: relation has no points and no explicit bounds")

// ErrNonPositiveK is the typed error every query entry point returns when a
// k parameter (k, kJoin, kSel, kAB, kCB, kBC, k1, k2) is zero or negative.
// Returned errors wrap it: test with errors.Is.
var ErrNonPositiveK = errors.New("twoknn: k must be positive")

// ErrNonFiniteCoordinate is the typed error every query entry point that
// takes focal points or a range rectangle returns when one of their
// coordinates is NaN or ±Inf: such a coordinate orders no distance, so any
// answer would be wrong. Returned errors wrap it: test with errors.Is.
var ErrNonFiniteCoordinate = errors.New("twoknn: coordinate is NaN or infinite")

// ErrNilRelation is the typed error every query entry point returns when a
// relation argument is nil (either a nil interface or a typed nil *Relation
// / *ShardedRelation). Returned errors wrap it: test with errors.Is.
//
// Empty relations are NOT an error at query time: every entry point accepts
// a relation with zero points (built with WithBounds) and returns an empty
// result.
var ErrNilRelation = errors.New("twoknn: nil relation")

// Source is the backing a query reads from: a single *Relation, a
// *ShardedRelation or a *RemoteRelation. Every package-level query function
// accepts any mix of the three and runs the same algorithm over them — the
// plan options mean the same thing on every backing; a backing decides only
// how an operand is scanned and probed, and, when any operand is sharded or
// remote, that join rows come back in canonical order. The interface is
// sealed; implementations live in this package.
type Source interface {
	// Name returns the relation's name.
	Name() string
	// Len returns the relation's cardinality.
	Len() int
	// Bounds returns the indexed region.
	Bounds() Rect
	// IndexKind returns the index implementation the relation was built on.
	IndexKind() IndexKind
	// Epoch returns the data-version number of the relation's current
	// snapshot. Every mutation batch (Insert/Remove/Update on a *Relation)
	// bumps it, as does an explicit Invalidate call; result caches key on
	// it, so mutation invalidates cached answers automatically.
	Epoch() uint64

	// execGroup returns the source's shard group (seals the interface).
	execGroup() shard.Group
	// singleRelation returns the backing *Relation when the source is a
	// single un-sharded relation, nil otherwise.
	singleRelation() *Relation
	// layout describes how the source's points are laid out, for EXPLAIN.
	layout() string
	// srcNil reports whether the receiver is a typed nil pointer.
	srcNil() bool
}

// Relation is an indexed relation of points. Queries always run against an
// immutable snapshot; Insert, Remove and Update mutate the relation by
// publishing a new snapshot (see the mutation API in mutate.go), so readers
// and writers never block each other.
//
// Storage is columnar: each snapshot owns flat structure-of-arrays point
// storage (separate X and Y columns) that the index permuted into
// block-contiguous order at build time; mutated snapshots add delta spans
// and tombstone-compacted blocks over the same columnar shape (see
// internal/index/overlay). Every point keeps a stable ID — its position in
// the slice passed to NewRelation, or the ID Insert assigned — across that
// permutation; PointID, PointAt and PointByID expose the mapping. Stable
// IDs are the identity primitive for layers above snapshots (result
// streaming, sharded scatter/gather, mutation, change feeds): they name a
// point independently of where any particular index placed it.
type Relation struct {
	name string
	kind IndexKind

	// d is the mutable state shared by every clone: the current snapshot,
	// the epoch, and the write path. It belongs to the data, not the
	// handle.
	d *relData
}

// relData is the shared-by-clones state of one logical relation.
type relData struct {
	// epoch is the data-version number, bumped once per mutation batch.
	epoch atomic.Uint64

	// snap is the current immutable snapshot; queries load it exactly once
	// per entry and run entirely against that value (RCU: a swapped-out
	// snapshot stays valid for in-flight queries until they release it).
	snap atomic.Pointer[relSnapshot]

	cfg relationConfig

	// mu serializes the write path (mutations and compaction). Queries
	// never take it.
	mu     sync.Mutex
	ov     *overlay.Store // nil while the current snapshot is a native index
	nextID int32

	mutations   atomic.Uint64
	compactions atomic.Uint64
	compacting  atomic.Bool
}

// relSnapshot is one immutable snapshot: the core relation (index +
// searcher pool) plus lazily built point-access views. Lazy state hangs off
// the snapshot — not the Relation — so it can never go stale across
// mutations (each snapshot builds its own).
type relSnapshot struct {
	rel *core.Relation

	// Overlay residency at publish time, surfaced by DeltaStats.
	deltaLive  int
	tombstones int

	// flat is the scan-order point view for snapshots whose index spreads
	// points over several stores (overlay snapshots); nil until first use.
	flatOnce sync.Once
	flat     *geom.PointStore

	// byID maps stable ID -> scan position, built on first PointByID.
	byIDOnce sync.Once
	byID     map[int32]int32
}

// store returns the snapshot's scan-order columnar view: the index's own
// relation-wide store when it has one, otherwise a flat copy materialized
// from the blocks once per snapshot.
func (s *relSnapshot) store() *geom.PointStore {
	if st := s.rel.Store(); st != nil {
		return st
	}
	s.flatOnce.Do(func() {
		out := geom.NewPointStore(s.rel.Len())
		for _, b := range s.rel.Ix.Blocks() {
			ids := b.PointIDs()
			for i := range ids {
				out.AppendWithID(b.PointAt(i), ids[i])
			}
		}
		s.flat = out
	})
	return s.flat
}

// inverse returns the snapshot's stable-ID -> scan-position map, built on
// first use.
func (s *relSnapshot) inverse() map[int32]int32 {
	s.byIDOnce.Do(func() {
		st := s.store()
		m := make(map[int32]int32, st.Len())
		for pos, id := range st.IDs {
			m[id] = int32(pos)
		}
		s.byID = m
	})
	return s.byID
}

// RelationOption configures NewRelation.
type RelationOption func(*relationConfig)

type relationConfig struct {
	kind         IndexKind
	capacity     int
	bounds       Rect
	maxSearchers int
	shardPolicy  ShardPolicy
	compactFrac  float64
}

// WithIndexKind selects the spatial index implementation (default
// GridIndex).
func WithIndexKind(kind IndexKind) RelationOption {
	return func(c *relationConfig) { c.kind = kind }
}

// WithBlockCapacity sets the target number of points per index block
// (default 64). Smaller blocks give finer pruning at higher traversal cost.
func WithBlockCapacity(n int) RelationOption {
	return func(c *relationConfig) { c.capacity = n }
}

// WithBounds fixes the indexed region instead of deriving it from the
// points. Required for empty relations; useful to give several relations a
// common block geometry.
func WithBounds(r Rect) RelationOption {
	return func(c *relationConfig) { c.bounds = r }
}

// WithMaxSearchers bounds the relation's searcher pool: at most n query
// handles — each owning iterator pools, a selection heap and a result
// buffer — ever exist at once, so the scratch memory added by concurrency
// is n·O(handle) no matter how many queries are in flight. n ≤ 0 (the
// default) leaves the pool unbounded: handles are minted on demand, and up
// to GOMAXPROCS idle ones are kept for reuse — across garbage collections —
// while the rest of a burst's handles are dropped when released.
//
// The shed-load contract beyond the bound: plain queries block until a
// handle frees up; queries carrying a WithContext context wait only until
// the context's deadline and then fail with an error chaining
// ErrQueryCanceled and ErrSearchersExhausted; WithConcurrency's extra
// fan-out workers never wait — they stand down and the query completes on
// the handles it holds. A bounded relation therefore degrades under
// overload by queueing (bounded by caller deadlines) and by shedding
// parallelism, never by unbounded memory growth.
func WithMaxSearchers(n int) RelationOption {
	return func(c *relationConfig) { c.maxSearchers = n }
}

// buildIndex constructs the spatial index for st, shared by NewRelation and
// the compaction path. A zero bounds derives the region from the points.
func buildIndex(st *geom.PointStore, kind IndexKind, capacity int, bounds Rect) (index.Index, error) {
	if kind == QuadtreeIndex {
		return quadtree.NewFromStore(st, quadtree.Options{LeafCapacity: capacity, Bounds: bounds})
	}
	return grid.NewFromStore(st, grid.Options{TargetPerCell: capacity, Bounds: bounds})
}

// newCore wraps an index in a core relation with this relation's pool
// policy.
func (d *relData) newCore(ix index.Index) *core.Relation {
	return core.NewRelationBounded(ix, d.cfg.maxSearchers)
}

// NewRelation indexes pts under the given name. The name appears in EXPLAIN
// output. The point slice is copied where the index implementation needs to
// reorder it; callers may reuse pts afterwards. A point with a NaN or
// infinite coordinate is refused with an error wrapping
// ErrNonFiniteCoordinate that names its index in pts.
func NewRelation(name string, pts []Point, opts ...RelationOption) (*Relation, error) {
	cfg := relationConfig{kind: GridIndex, capacity: 64}
	for _, o := range opts {
		o(&cfg)
	}
	if len(pts) == 0 && cfg.bounds.Area() <= 0 {
		return nil, fmt.Errorf("%w (name %q)", ErrEmptyRelation, name)
	}
	if err := checkFinite(pts); err != nil {
		return nil, fmt.Errorf("%w (name %q)", err, name)
	}

	// One pass into columnar form; the index constructor permutes this
	// store into block-contiguous order, carrying the stable IDs (input
	// positions) along.
	st := geom.StoreFromPoints(pts)
	ix, err := buildIndex(st, cfg.kind, cfg.capacity, cfg.bounds)
	if err != nil {
		return nil, fmt.Errorf("twoknn: building %s index for %q: %w", cfg.kind, name, err)
	}
	d := &relData{cfg: cfg, nextID: int32(len(pts))}
	// The epoch starts at 1: 0 never names a live snapshot, so zero-valued
	// cache keys cannot alias one.
	d.epoch.Store(1)
	d.snap.Store(&relSnapshot{rel: d.newCore(ix)})
	return &Relation{name: name, kind: cfg.kind, d: d}, nil
}

// newEpoch returns a fresh epoch counter starting at 1 (0 never names a
// live snapshot, so zero-valued cache keys cannot alias one); used by the
// sharded relation, whose epoch is a standalone counter.
func newEpoch() *atomic.Uint64 {
	e := new(atomic.Uint64)
	e.Store(1)
	return e
}

// snapshot returns the relation's current immutable snapshot. Every query
// entry point calls it exactly once per distinct relation argument and runs
// entirely against the returned value.
func (r *Relation) snapshot() *relSnapshot { return r.d.snap.Load() }

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Len returns the number of points in the relation's current snapshot.
func (r *Relation) Len() int { return r.snapshot().rel.Len() }

// Bounds returns the indexed region of the current snapshot.
func (r *Relation) Bounds() Rect { return r.snapshot().rel.Ix.Bounds() }

// IndexKind returns the index implementation the relation was built with.
func (r *Relation) IndexKind() IndexKind { return r.kind }

// Points returns a copy of the current snapshot's points in index scan
// order.
func (r *Relation) Points() []Point { return r.snapshot().rel.Points() }

// PointAt returns the i-th point in index scan order, 0 ≤ i < Len(), of the
// current snapshot.
func (r *Relation) PointAt(i int) Point { return r.snapshot().store().At(i) }

// PointID returns the stable ID of the i-th point in index scan order: its
// position in the point slice the relation was built from, or the ID Insert
// assigned. The mapping survives the index's block permutation.
func (r *Relation) PointID(i int) int32 { return r.snapshot().store().ID(i) }

// PointIDs returns the stable IDs of all points, parallel to Points().
func (r *Relation) PointIDs() []int32 {
	st := r.snapshot().store()
	out := make([]int32, st.Len())
	copy(out, st.IDs)
	return out
}

// PointsWithIDs returns the live points and their stable IDs, index-aligned,
// from one snapshot — the coherent form of calling Points and PointIDs under
// concurrent mutation, where two separate calls could observe two different
// snapshots and zip a point with another epoch's ID.
func (r *Relation) PointsWithIDs() ([]Point, []int32) {
	st := r.snapshot().store()
	pts := make([]Point, st.Len())
	ids := make([]int32, st.Len())
	for i := range pts {
		pts[i] = st.At(i)
	}
	copy(ids, st.IDs)
	return pts, ids
}

// PointByID returns the point with the given stable ID, or ok == false when
// no such ID exists (including IDs whose point was removed). The first call
// on a snapshot builds an O(n)-space inverse index; later calls are O(1)
// and safe for concurrent use. The inverse belongs to the snapshot, so a
// mutation can never leave it stale: after Remove the ID resolves to
// nothing, after Insert the new ID resolves immediately.
func (r *Relation) PointByID(id int32) (p Point, ok bool) {
	s := r.snapshot()
	pos, ok := s.inverse()[id]
	if !ok {
		return Point{}, false
	}
	return s.store().At(int(pos)), true
}

// Clone returns another handle over the same logical relation: clones share
// snapshots, the epoch and the write path, so a mutation through one handle
// is visible through all of them. Every query entry point is
// goroutine-safe against a shared *Relation (queries borrow pooled
// searchers internally), so queries on a clone behave exactly like queries
// on the original; Clone is retained for API continuity with the
// pre-concurrency versions of this package, not for performance.
func (r *Relation) Clone() *Relation {
	return &Relation{name: r.name, kind: r.kind, d: r.d}
}

// Epoch implements Source: the data-version number of the snapshot. Clones
// share it — the epoch names the data, not the handle.
func (r *Relation) Epoch() uint64 { return r.d.epoch.Load() }

// Invalidate bumps the relation's epoch, making every cached result keyed
// on the previous epoch unreachable. The mutation path (Insert, Remove,
// Update) calls this automatically once per batch; the explicit hook
// remains for callers that swap data behind a name out of band.
func (r *Relation) Invalidate() { r.d.epoch.Add(1) }

// KNNSelect returns the k points of the relation closest to the focal point
// f (σ_{k,f}), in ascending (distance, X, Y) order. It errors on a nil
// receiver (ErrNilRelation), non-positive k (ErrNonPositiveK) and a NaN or
// infinite focal coordinate (ErrNonFiniteCoordinate).
func (r *Relation) KNNSelect(f Point, k int, opts ...QueryOption) ([]Point, error) {
	return KNNSelect(r, f, k, opts...)
}

// OutstandingSearchers returns the number of searcher handles currently out
// of the current snapshot's pool — a point-in-time snapshot for leak
// assertions and load metrics. A relation with no query in flight reports
// 0, including after cancelled, deadline-expired or panicked queries.
func (r *Relation) OutstandingSearchers() int { return r.snapshot().rel.Pool().Outstanding() }

// execGroup implements Source.
func (r *Relation) execGroup() shard.Group { return shard.SingleGroup(r.snapshot().rel) }

// singleRelation implements Source.
func (r *Relation) singleRelation() *Relation { return r }

// layout implements Source.
func (r *Relation) layout() string { return "un-sharded" }

// srcNil implements Source.
func (r *Relation) srcNil() bool { return r == nil }

// KNNJoin evaluates outer ⋈kNN inner: all pairs (e1, e2) with e2 among the
// k nearest neighbors of e1. Either side may be sharded or remote; results
// are identical (in canonical SortPairs order then, in outer scan order
// between two single relations).
// It errors on nil relations (ErrNilRelation) and non-positive k
// (ErrNonPositiveK).
func KNNJoin(outer, inner Source, k int, opts ...QueryOption) ([]Pair, error) {
	if err := validate([]Source{outer, inner}, nil, kArg{"k", k}); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	return run(&cfg, plan.KNNJoin(k), func(p plan.Plan, ops [3]core.Operand) []Pair {
		return core.Join(ops[0], ops[1], p.K[0], cfg.concurrency, cfg.stats)
	}, outer, inner)
}

// kArg names one k parameter of a query for validate.
type kArg struct {
	name string
	k    int
}

// validate checks a query's arguments before anything else touches them:
// the relations first — nil interfaces and, via srcNil (safe on nil
// receivers), typed nil pointers; the error wraps ErrNilRelation — then the
// k parameters in the order given; the error wraps ErrNonPositiveK — then
// the focal points or range corners pts; the error wraps
// ErrNonFiniteCoordinate.
func validate(srcs []Source, pts []Point, ks ...kArg) error {
	for i, s := range srcs {
		if s == nil || s.srcNil() {
			return fmt.Errorf("%w (argument %d)", ErrNilRelation, i+1)
		}
	}
	for _, a := range ks {
		if a.k <= 0 {
			return fmt.Errorf("%w: %s = %d", ErrNonPositiveK, a.name, a.k)
		}
	}
	return checkFinite(pts)
}

// checkFinite reports the first point of pts with a NaN or infinite coordinate,
// wrapping ErrNonFiniteCoordinate.
func checkFinite(pts []Point) error {
	for i, p := range pts {
		if !finite(p) {
			return fmt.Errorf("%w: %v (point %d)", ErrNonFiniteCoordinate, p, i)
		}
	}
	return nil
}

// finite reports whether neither of p's coordinates is NaN or infinite.
func finite(p Point) bool {
	return !math.IsNaN(p.X) && !math.IsNaN(p.Y) && !math.IsInf(p.X, 0) && !math.IsInf(p.Y, 0)
}
