package server

import (
	"net/http"
	"sync/atomic"
	"time"

	twoknn "repro"
)

// routeMetrics are one route's request counters, bumped atomically by the
// serving path and snapshotted by /metrics.
type routeMetrics struct {
	requests    atomic.Int64 // every request that reached the route
	ok          atomic.Int64 // 200
	badRequest  atomic.Int64 // 400 (malformed JSON, unknown dataset, k<=0)
	shed        atomic.Int64 // 429 (admission gate or bounded-pool shed)
	deadline    atomic.Int64 // 504 (deadline expired mid-query)
	unavailable atomic.Int64 // 503 (remote shard's replica set exhausted)
	panics      atomic.Int64 // 500 from an isolated worker panic
	internal    atomic.Int64 // 500, anything else
}

// metrics holds the server's route counters: one set per route table
// entry, created with the server, so the map is never written after New and
// /metrics lists every route from startup.
type metrics struct {
	start  time.Time
	routes map[string]*routeMetrics
}

func newMetrics() *metrics {
	m := &metrics{start: time.Now(), routes: make(map[string]*routeMetrics, len(routes))}
	for _, rt := range routes {
		m.routes[rt.name] = &routeMetrics{}
	}
	return m
}

// RouteMetrics is one route's counters on the /metrics wire.
type RouteMetrics struct {
	Requests    int64 `json:"requests"`
	OK          int64 `json:"ok"`
	BadRequest  int64 `json:"bad_request"`
	Shed        int64 `json:"shed"`
	Deadline    int64 `json:"deadline"`
	Unavailable int64 `json:"unavailable"`
	Panic       int64 `json:"panic"`
	Internal    int64 `json:"internal"`
}

// ShardMetrics is one shard's slice of a sharded dataset on the /metrics
// wire (twoknn.ShardStats, flattened for JSON).
type ShardMetrics struct {
	Shard  int          `json:"shard"`
	Points int          `json:"points"`
	Ops    twoknn.Stats `json:"ops"`
}

// DatasetMetrics is one dataset's /metrics entry.
type DatasetMetrics struct {
	Points int    `json:"points"`
	Index  string `json:"index"`

	// Epoch is the dataset's current data version; the batch cache keys on
	// it, so a bump means every earlier cached result is unreachable.
	Epoch uint64 `json:"epoch"`

	// Delta is the mutable-relation residency snapshot — live delta points,
	// tombstones, lifetime mutation batches and background/explicit merges —
	// absent for sharded datasets, which do not accept mutations.
	Delta *twoknn.DeltaStats `json:"delta,omitempty"`

	// Shards and Policy are set for sharded datasets only.
	Shards int    `json:"shards,omitempty"`
	Policy string `json:"policy,omitempty"`

	// OutstandingSearchers is the engine's load/leak metric: searcher
	// handles currently out of the dataset's pools. Zero when no query is
	// in flight.
	OutstandingSearchers int `json:"outstanding_searchers"`

	// Inflight is the number of admission-gate slots currently held (0
	// when the server runs without MaxInflight).
	Inflight int `json:"inflight"`

	// CacheHits / CacheMisses are the dataset's lifetime result-cache
	// counters (the batch route's epoch-keyed cache), broken out of Stats
	// for dashboards; CacheEntries is the resident entry count.
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`

	// Stats accumulates the engine's operation counters over every request
	// this dataset participated in.
	Stats twoknn.Stats `json:"stats"`

	// ShardStats is the per-shard lifetime counter snapshot of a sharded
	// dataset (partition-balance signal), absent for single relations.
	ShardStats []ShardMetrics `json:"shard_stats,omitempty"`

	// Remote is the transport-envelope counter snapshot of a remote
	// dataset — per shard and per endpoint: attempts, retries, hedges and
	// hedge wins, breaker state and trips, failovers and exhaustions —
	// absent for in-process sources.
	Remote []twoknn.RemoteShardStats `json:"remote,omitempty"`
}

// MetricsResponse is the GET /metrics body.
type MetricsResponse struct {
	UptimeSeconds float64                   `json:"uptime_seconds"`
	Datasets      map[string]DatasetMetrics `json:"datasets"`
	Routes        map[string]RouteMetrics   `json:"routes"`
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	Status   string `json:"status"`
	Datasets int    `json:"datasets"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	resp := MetricsResponse{
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		Datasets:      make(map[string]DatasetMetrics),
		Routes:        make(map[string]RouteMetrics),
	}

	s.mu.RLock()
	ds := make([]*dataset, 0, len(s.datasets))
	for _, d := range s.datasets {
		ds = append(ds, d)
	}
	s.mu.RUnlock()

	for _, d := range ds {
		snap := d.stats.Snapshot()
		dm := DatasetMetrics{
			Points:       d.src.Len(),
			Index:        d.src.IndexKind().String(),
			Inflight:     len(d.gate),
			CacheHits:    snap.CacheHits,
			CacheMisses:  snap.CacheMisses,
			CacheEntries: d.cache.Len(),
			Stats:        snap,
		}
		dm.Epoch = d.src.Epoch()
		switch r := d.src.(type) {
		case *twoknn.Relation:
			dm.OutstandingSearchers = r.OutstandingSearchers()
			ds := r.DeltaStats()
			dm.Delta = &ds
		case *twoknn.ShardedRelation:
			dm.OutstandingSearchers = r.OutstandingSearchers()
			dm.Shards = r.NumShards()
			dm.Policy = r.Policy().String()
			dm.ShardStats = shardMetrics(r.Snapshot())
		case *twoknn.RemoteRelation:
			// Searcher pools live in the shard processes; what the
			// coordinator owns is the transport envelope, surfaced whole.
			dm.Shards = r.NumShards()
			dm.ShardStats = shardMetrics(r.Snapshot())
			dm.Remote = r.RemoteStats()
		}
		resp.Datasets[d.name] = dm
	}

	for name, rm := range s.metrics.routes {
		resp.Routes[name] = RouteMetrics{
			Requests:    rm.requests.Load(),
			OK:          rm.ok.Load(),
			BadRequest:  rm.badRequest.Load(),
			Shed:        rm.shed.Load(),
			Deadline:    rm.deadline.Load(),
			Unavailable: rm.unavailable.Load(),
			Panic:       rm.panics.Load(),
			Internal:    rm.internal.Load(),
		}
	}

	writeJSON(w, http.StatusOK, resp)
}

// shardMetrics flattens a Snapshot's per-shard counters for the wire; the
// total is dropped.
func shardMetrics(perShard []twoknn.ShardStats, _ twoknn.Stats) []ShardMetrics {
	out := make([]ShardMetrics, len(perShard))
	for i, sh := range perShard {
		out[i] = ShardMetrics{Shard: sh.Shard, Points: sh.Points, Ops: sh.Ops}
	}
	return out
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	n := len(s.datasets)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Datasets: n})
}
