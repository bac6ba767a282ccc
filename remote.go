package twoknn

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/remote"
	"repro/internal/shard"
)

// This file is the distributed-serving surface: a RemoteRelation is a query
// source whose shards live in other processes (cmd/knnshard), reached over
// the HTTP/JSON shard-probe protocol of internal/remote, and NewShardHandler
// is the serving side — one shard of a dataset behind an http.Handler.
//
// Every query entry point accepts a *RemoteRelation wherever it accepts a
// *Relation or *ShardedRelation: the algorithms see a remote operand only
// through the probe contract, so results are byte-identical to in-process
// execution (the wire carries stable IDs, coordinates and squared distances
// — the exact merge keys). Each remote probe runs under a robustness
// envelope: a per-attempt deadline, bounded retries with jittered
// exponential backoff, a hedged second request after the endpoint's observed
// latency quantile, a per-endpoint circuit breaker, and failover across a
// shard's replicas.
//
// Failure semantics are fail-closed by default — if a shard's whole replica
// set is exhausted the query errors with a chain wrapping
// ErrShardUnavailable — and opt-in degraded with WithPartialResults, which
// returns the merged answer over the reachable shards together with a
// *PartialResultError naming the missing ones.

// ErrShardUnavailable reports that a remote shard's entire replica set
// failed to answer within the robustness envelope (every replica down,
// breaker-shed, or past its deadline). Test with errors.Is; the failing
// shard's index and last transport error are in the message.
var ErrShardUnavailable = remote.ErrUnavailable

// Sentinels for RemoteConfig fields whose zero value means "default": they
// disable the mechanism instead.
const (
	// NoRetries disables retrying failed probe attempts.
	NoRetries = remote.NoRetries

	// NoHedging disables hedged second requests.
	NoHedging = remote.NoHedging

	// NoBreaker disables per-endpoint circuit breakers.
	NoBreaker = remote.NoBreaker
)

// remoteIdleConnsPerHost sizes the default client's idle pool per shard
// endpoint. A query worker keeps one request per shard in flight at a time,
// so the pool must hold as many connections as the coordinator evaluates
// queries at once: well above any admission limit a server is started with
// (knnserve's documented -max-inflight is 256).
const remoteIdleConnsPerHost = 1024

// RemoteConfig tunes the robustness envelope around every call to a remote
// shard. The zero value (and a nil *RemoteConfig) means defaults; use the
// No* sentinels to disable a mechanism entirely.
type RemoteConfig struct {
	// ProbeTimeout caps each individual probe attempt; retries, hedges and
	// failover each get a fresh attempt budget, while the query's
	// WithContext deadline bounds the call overall. Default 2s.
	ProbeTimeout time.Duration

	// MaxRetries is the number of extra attempts against one endpoint
	// after a transient failure (connection errors, 5xx, timeouts,
	// malformed responses). Default 2; NoRetries disables.
	MaxRetries int

	// RetryBackoff is the first retry's backoff; it doubles per retry and
	// every sleep is jittered ±50%. Default 5ms.
	RetryBackoff time.Duration

	// HedgeAfter is the floor of the hedging delay: when an attempt has
	// not answered after max(HedgeAfter, the endpoint's observed p90
	// success latency), a second request goes to the next healthy replica
	// and the first answer wins. Default 50ms; NoHedging disables.
	HedgeAfter time.Duration

	// BreakerThreshold is the consecutive-transient-failure count that
	// trips an endpoint's circuit breaker open (failover then skips the
	// endpoint until BreakerCooldown admits a probe-through). Default 3;
	// NoBreaker disables breakers.
	BreakerThreshold int

	// BreakerCooldown is how long a tripped breaker stays open before
	// admitting a single probe-through attempt. Default 1s.
	BreakerCooldown time.Duration

	// HTTPClient overrides the transport's HTTP client (connection
	// pooling, TLS); the default keeps a per-shard idle pool large enough
	// for every concurrent query to reuse its connection. Leave the
	// client's Timeout zero — the envelope's per-attempt contexts bound
	// every request.
	HTTPClient *http.Client
}

// options lowers the public config onto the envelope's option set.
func (c *RemoteConfig) options() remote.Options {
	if c == nil {
		return remote.Options{}
	}
	return remote.Options{
		ProbeTimeout:     c.ProbeTimeout,
		MaxRetries:       c.MaxRetries,
		RetryBackoff:     c.RetryBackoff,
		HedgeAfter:       c.HedgeAfter,
		BreakerThreshold: c.BreakerThreshold,
		BreakerCooldown:  c.BreakerCooldown,
	}
}

// RemoteRelation is a query source whose shards are served by other
// processes. It is a drop-in operand: every query function accepts a
// *RemoteRelation wherever it accepts a *Relation (the Source interface),
// and any mix of local, sharded and remote sources.
//
// The relation snapshots each shard's identity card (cardinality, bounds,
// block headers, epoch) at dial time; the served snapshots are immutable, so
// the view never goes stale. Queries run the same algorithms as over any
// other source: probes scatter through each shard's replica-set envelope,
// a focal group per request and every shard's request in flight at once,
// and gather by the merge the in-process sharded probe uses — including the
// MINDIST shard skip and Block-Marking's block-level pruning, which over
// remote shards saves network transfer (a pruned block's points are never
// fetched). What a plan step needs and a remote operand cannot give —
// Procedure 3's contour over one index, Procedure 4's marks on B's blocks —
// falls back to the exhaustive or unpruned form of the same step, and
// EXPLAIN says so.
type RemoteRelation struct {
	name     string
	kind     IndexKind
	bounds   Rect
	length   int
	epoch    uint64
	members  []*remote.Member
	counters []*Stats

	// pts/ids cache the shards' full point sets (fetched lazily through
	// the block endpoints) for Points/PointIDs — the render-table path of
	// a serving coordinator, never the query path.
	ptsOnce sync.Once
	pts     []Point
	ids     []int32
	ptsErr  error
}

// DialRemote connects to a remote dataset: shards[s] lists shard s's
// replica base URLs, preferred replica first (e.g. "http://host:7001").
// Every shard's identity card is fetched and validated against the layout —
// a mis-wired endpoint (wrong shard index, wrong shard count, inconsistent
// block headers) fails here rather than merging wrong candidates. cfg may
// be nil for defaults.
func DialRemote(ctx context.Context, name string, shards [][]string, cfg *RemoteConfig) (*RemoteRelation, error) {
	var client *http.Client
	if cfg != nil {
		client = cfg.HTTPClient
	}
	if client == nil {
		// http.DefaultTransport keeps two idle connections per host: a
		// coordinator with more queries in flight than that would close and
		// re-dial a connection per request beyond the second, per shard.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 0 // bounded per host only
		tr.MaxIdleConnsPerHost = remoteIdleConnsPerHost
		client = &http.Client{Transport: tr}
	}
	tps := make([][]remote.ShardTransport, len(shards))
	for s, urls := range shards {
		if len(urls) == 0 {
			return nil, fmt.Errorf("twoknn: dialing %q: shard %d has no replica URLs", name, s)
		}
		for _, u := range urls {
			tps[s] = append(tps[s], remote.NewHTTPTransport(u, client))
		}
	}
	return dialRemoteTransports(ctx, name, tps, cfg)
}

// dialRemoteTransports is DialRemote below the URL layer; the differential
// tests drive it with loopback transports.
func dialRemoteTransports(ctx context.Context, name string, tps [][]remote.ShardTransport, cfg *RemoteConfig) (*RemoteRelation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	members, err := remote.Dial(ctx, tps, cfg.options())
	if err != nil {
		return nil, fmt.Errorf("twoknn: dialing %q: %w", name, err)
	}
	rr := &RemoteRelation{name: name, members: members, counters: make([]*Stats, len(members))}
	for i, m := range members {
		rr.counters[i] = new(Stats)
		info := m.Info()
		rr.length += info.Len
		rr.epoch += info.Epoch
		if i == 0 {
			rr.bounds = m.Bounds()
			rr.kind = indexKindNamed(info.Index)
		} else {
			rr.bounds = rr.bounds.Union(m.Bounds())
		}
	}
	return rr, nil
}

// indexKindNamed maps a shard's reported index family onto IndexKind
// (diagnostic only; unknown names read as grid).
func indexKindNamed(s string) IndexKind {
	k, err := ParseIndexKind(s)
	if err != nil {
		return GridIndex
	}
	return k
}

// Name returns the relation's name (given at dial time).
func (rr *RemoteRelation) Name() string { return rr.name }

// Len returns the total number of points across all remote shards.
func (rr *RemoteRelation) Len() int { return rr.length }

// Bounds returns the union of the shards' index bounds.
func (rr *RemoteRelation) Bounds() Rect { return rr.bounds }

// IndexKind returns the index family the shards report serving.
func (rr *RemoteRelation) IndexKind() IndexKind { return rr.kind }

// Epoch implements Source: the sum of the shard snapshots' epochs, fixed at
// dial time (remote shards serve immutable snapshots).
func (rr *RemoteRelation) Epoch() uint64 { return rr.epoch }

// NumShards returns the remote shard count.
func (rr *RemoteRelation) NumShards() int { return len(rr.members) }

// ShardLens returns the per-shard cardinalities, in shard order.
func (rr *RemoteRelation) ShardLens() []int {
	out := make([]int, len(rr.members))
	for i, m := range rr.members {
		out[i] = m.Len()
	}
	return out
}

// execGroup implements Source.
func (rr *RemoteRelation) execGroup() shard.Group {
	counters := make([]*Stats, len(rr.counters))
	copy(counters, rr.counters)
	return remote.NewGroup(rr.members, counters)
}

// singleRelation implements Source.
func (rr *RemoteRelation) singleRelation() *Relation { return nil }

// layout implements Source.
func (rr *RemoteRelation) layout() string { return fmt.Sprintf("%d remote shard(s)", len(rr.members)) }

// srcNil implements Source.
func (rr *RemoteRelation) srcNil() bool { return rr == nil }

// KNNSelect returns the k points of the remote relation closest to the
// focal point f; see KNNSelect.
func (rr *RemoteRelation) KNNSelect(f Point, k int, opts ...QueryOption) ([]Point, error) {
	return KNNSelect(rr, f, k, opts...)
}

// fetchPoints materializes every shard's point set through the block
// endpoints, once, for Points/PointIDs.
func (rr *RemoteRelation) fetchPoints() {
	rr.ptsOnce.Do(func() {
		ctx := context.Background()
		for s, m := range rr.members {
			pts, ids, err := m.FetchAllPoints(ctx)
			if err != nil {
				rr.ptsErr = fmt.Errorf("twoknn: fetching shard %d points of %q: %w", s, rr.name, err)
				rr.pts, rr.ids = nil, nil
				return
			}
			rr.pts = append(rr.pts, pts...)
			rr.ids = append(rr.ids, ids...)
		}
	})
}

// Points returns a copy of all points across remote shards, shard 0's
// storage order first — the remote counterpart of ShardedRelation.Points,
// parallel to PointIDs. The point sets are fetched through the shard block
// endpoints once and cached (the served snapshots are immutable); a fetch
// failure surfaces through FetchPoints and reads as an empty slice here.
func (rr *RemoteRelation) Points() []Point {
	rr.fetchPoints()
	return append([]Point(nil), rr.pts...)
}

// PointIDs returns the global stable IDs of all points, parallel to
// Points().
func (rr *RemoteRelation) PointIDs() []int32 {
	rr.fetchPoints()
	return append([]int32(nil), rr.ids...)
}

// FetchPoints is Points/PointIDs with the fetch error: a serving
// coordinator uses it to build render tables eagerly and to surface an
// unreachable shard at registration time.
func (rr *RemoteRelation) FetchPoints() (pts []Point, ids []int32, err error) {
	rr.fetchPoints()
	if rr.ptsErr != nil {
		return nil, nil, rr.ptsErr
	}
	return append([]Point(nil), rr.pts...), append([]int32(nil), rr.ids...), nil
}

// Snapshot returns the per-shard lifetime operation counters and their
// aggregate, exactly as ShardedRelation.Snapshot does — for remote shards
// the counters fold in the wire-reported per-probe deltas, so WithStats and
// /metrics account shard-side work identically across layouts.
func (rr *RemoteRelation) Snapshot() (perShard []ShardStats, total Stats) {
	perShard = make([]ShardStats, len(rr.members))
	for i, m := range rr.members {
		snap := rr.counters[i].Snapshot()
		perShard[i] = ShardStats{Shard: i, Points: m.Len(), Ops: snap}
		total.Add(&snap)
	}
	return perShard, total
}

// RemoteEndpointStats are one replica endpoint's robustness-envelope
// counters.
type RemoteEndpointStats = remote.EndpointStats

// RemoteShardStats are one remote shard's robustness-envelope counters: how
// often the shard's calls failed over between replicas, exhausted the whole
// set, or forced a last-resort attempt with every breaker open, plus the
// per-endpoint detail.
type RemoteShardStats struct {
	Shard       int                   `json:"shard"`
	Points      int                   `json:"points"`
	Failovers   int64                 `json:"failovers"`
	Exhausted   int64                 `json:"exhausted"`
	ForcedTries int64                 `json:"forced_tries"`
	Endpoints   []RemoteEndpointStats `json:"endpoints"`
}

// RemoteStats snapshots the per-shard robustness-envelope counters —
// retries, hedges, breaker state and trips, failovers — for metrics.
func (rr *RemoteRelation) RemoteStats() []RemoteShardStats {
	out := make([]RemoteShardStats, len(rr.members))
	for i, m := range rr.members {
		ns := m.NetStats()
		rs := RemoteShardStats{
			Shard:       ns.Shard,
			Points:      m.Len(),
			Failovers:   ns.Failovers,
			Exhausted:   ns.Exhausted,
			ForcedTries: ns.ForcedTries,
			Endpoints:   ns.Endpoints,
		}
		out[i] = rs
	}
	return out
}

// PartialResultError reports that a query opted into WithPartialResults
// completed over a subset of its remote shards. The returned results are
// the exact merge over the shards that answered; Missing names the shards
// that contributed nothing. It wraps ErrShardUnavailable (test with
// errors.Is, inspect with errors.As).
type PartialResultError struct {
	// Missing lists the unavailable shard indexes, ascending.
	Missing []int

	// Errs maps each missing shard to its first failure.
	Errs map[int]error
}

// Error implements error.
func (e *PartialResultError) Error() string {
	return fmt.Sprintf("twoknn: partial result: %d shard(s) unavailable %v", len(e.Missing), e.Missing)
}

// Unwrap makes errors.Is(err, ErrShardUnavailable) hold.
func (e *PartialResultError) Unwrap() error { return ErrShardUnavailable }

// WithPartialResults opts the query into graceful degradation over remote
// shards: when a shard's whole replica set is exhausted, the query keeps
// going without it — the shard contributes an empty candidate set — and
// returns the merged answer over the reachable shards TOGETHER with a
// *PartialResultError naming the missing shards. err == nil still means
// the answer is complete and exact.
//
// Without the option (the default), an exhausted replica set fails the
// query closed with an error wrapping ErrShardUnavailable: callers never
// mistake a partial answer for the exact one. The option has no effect on
// local or in-process sharded sources, and cancellation always wins — a
// dead query context unwinds as ErrQueryCanceled, not as a partial result.
func WithPartialResults() QueryOption {
	return func(c *queryConfig) { c.partial = true }
}

// NewShardHandler builds the serving side of one remote shard: an
// http.Handler speaking the shard-probe protocol over shard shardIdx of the
// dataset pts partitions into shards parts (cmd/knnshard wraps it in a
// process; tests mount it on httptest servers).
//
// The full dataset is passed in and partitioned here — with the same policy
// code the in-process ShardedRelation uses — so stable point IDs are the
// global input positions and every shard process derives an identical
// partition from the same input. Options are shared with NewRelation /
// NewShardedRelation: WithIndexKind, WithBlockCapacity, WithBounds,
// WithShardPolicy, WithMaxSearchers (this shard's searcher pool).
func NewShardHandler(name string, pts []Point, shardIdx, shards int, opts ...RelationOption) (http.Handler, error) {
	cfg := relationConfig{kind: GridIndex, capacity: 64}
	for _, o := range opts {
		o(&cfg)
	}
	if shards < 1 {
		return nil, fmt.Errorf("%w: got %d (name %q)", ErrInvalidShardCount, shards, name)
	}
	if shardIdx < 0 || shardIdx >= shards {
		return nil, fmt.Errorf("twoknn: shard index %d out of range [0,%d) (name %q)", shardIdx, shards, name)
	}
	if len(pts) == 0 && cfg.bounds.Area() <= 0 {
		return nil, fmt.Errorf("%w (name %q)", ErrEmptyRelation, name)
	}
	fallback := cfg.bounds
	if fallback.Area() <= 0 {
		fallback = geom.RectFromPoints(pts)
	}
	st := shard.Partition(pts, shards, cfg.shardPolicy.policy())[shardIdx]
	ix, err := shardIndexBuilder(cfg.kind, cfg.capacity, cfg.bounds, fallback)(st)
	if err != nil {
		return nil, fmt.Errorf("twoknn: building shard %d/%d of %q: %w", shardIdx, shards, name, err)
	}
	return remote.NewShardServer(core.NewRelationBounded(ix, cfg.maxSearchers), remote.ShardServerConfig{
		Name:   name,
		Shard:  shardIdx,
		Shards: shards,
		Index:  cfg.kind.String(),
	}), nil
}
