// Package twoknn is a Go implementation of the query-processing algorithms
// from "Spatial Queries with Two kNN Predicates" (Ahmed M. Aly, Walid G.
// Aref, Mourad Ouzzani; PVLDB 5(11), VLDB 2012).
//
// The package evaluates spatial queries that combine TWO k-nearest-neighbor
// predicates over sets of 2-D points — the combinations where classical
// optimizer rewrites silently change query answers:
//
//   - a kNN-select on the inner relation of a kNN-join (SelectInnerJoin):
//     pushing the select below the join is invalid; the package evaluates it
//     correctly with the paper's Counting and Block-Marking algorithms, which
//     are orders of magnitude faster than the conceptual plan — by default
//     both, since each prune is exact: Block-Marking's block prune, then
//     Counting's tuple prune inside the blocks that survive it;
//   - a kNN-select on the outer relation of a kNN-join (SelectOuterJoin):
//     the pushdown is valid and is what the implementation does;
//   - two unchained kNN-joins sharing their inner relation (UnchainedJoins):
//     both joins are evaluated independently and intersected on the shared
//     relation; the second join's outer blocks, then its outer points, are
//     pruned against the first join's b's, and the join order follows
//     cluster coverage;
//   - two chained kNN-joins A→B→C (ChainedJoins): evaluated with the
//     nested-join plan and a neighborhood cache;
//   - two kNN-selects over one relation (TwoSelects): evaluated with the
//     2-kNN-select algorithm that clips the larger predicate's locality;
//   - a rectangular range selection on the inner relation of a kNN-join
//     (RangeInnerJoin): the paper's footnote-1 extension.
//
// # Quick start
//
//	hotels, _ := twoknn.NewRelation("hotels", hotelPoints)
//	shops, _ := twoknn.NewRelation("mechanics", shopPoints)
//
//	// (mechanic, hotel) pairs where the hotel is among the 2 nearest to the
//	// mechanic AND among the 2 nearest to the shopping center.
//	pairs, err := twoknn.SelectInnerJoin(shops, hotels, shoppingCenter, 2, 2)
//
// Relations are built once over a point snapshot and indexed with a uniform
// grid by default; a quadtree index is available through WithIndexKind —
// the algorithms are index-agnostic, as in the paper.
//
// All query functions accept options: WithAlgorithm forces a strategy,
// WithStats collects operation counters, WithExplain captures an EXPLAIN
// tree of the chosen plan, WithConcurrency fans the join algorithms out
// across pooled searchers. Every entry point, the batches included, renders
// EXPLAIN from the one plan value whose fields it ran, so what EXPLAIN
// prints is what ran.
//
// # Determinism
//
// Exact distance ties are broken by (distance, X, Y) everywhere, so every
// evaluation strategy for a query returns the identical result set, and
// results are reproducible across runs.
//
// # Concurrency
//
// Every query entry point — KNNSelect, KNNJoin, SelectInnerJoin,
// SelectOuterJoin, TwoSelects, UnchainedJoins, ChainedJoins,
// RangeInnerJoin — is safe to call from any number of goroutines against
// the same *Relation values. A Relation's data is versioned in immutable
// snapshots (see Mutability below); the mutable
// searcher scratch (iterator pools, selection heap, result buffer) lives
// in per-goroutine handles managed by an internal searcher pool. A query
// borrows a handle on a relation for each step that probes its searcher
// (relations that are only scanned, like the outer of a join, cost
// nothing) and returns it when the step is done — never holding two
// relations' handles at once, so queries over the same bounded relations
// cannot deadlock on each other — and concurrent queries never share
// mutable state; in steady state the borrowing allocates nothing.
//
// The pool is unbounded by default: a burst of N concurrent queries grows
// it to N handles, of which up to GOMAXPROCS stay idle for reuse — a garbage
// collection does not take them away — and the rest are dropped when
// released. WithMaxSearchers(n) bounds it instead — at most n handles ever
// exist, fixing the relation's scratch memory at n·O(handle); queries
// beyond the bound block until a handle frees up. This is the explicit
// space–time tradeoff of concurrent serving: more handles, more in-flight
// queries, more resident scratch.
//
// Two levels of parallelism compose:
//
//   - inter-query: many goroutines each run their own query against shared
//     relations (a server's natural shape);
//   - intra-query: WithConcurrency(n) fans one join's tuple batches out
//     across n workers, each borrowing its own probe on the inner side (a
//     handle; one per shard of a sharded relation). Every join algorithm
//     is one body parameterized by the worker count, running on one
//     worker-crew driver whatever backs its operands; sequential
//     evaluation is that body at one worker, and per-worker arena buffers
//     concatenated in batch order make the result byte-identical whatever
//     n is, including order.
//
// Stats counters are atomic, so one *Stats may accumulate across
// concurrent queries. Clone remains available to give a long-lived
// component a dedicated handle, but is no longer required for correctness.
//
// # Mutability
//
// A Relation accepts in-place mutations: Insert appends points and
// returns their assigned stable IDs, Remove tombstones live IDs, Update
// moves a live point or re-inserts a dead or brand-new ID (an upsert).
// Mutations land in a delta overlay over the immutable base index — an
// append-only columnar side store for inserts, compacted replacement
// blocks for removals — and every query shape reads base and delta
// through the same batched kernels, returning answers byte-identical to a
// from-scratch rebuild of the live set.
//
// The snapshot semantics: readers never lock. Every query entry point
// atomically loads the relation's current snapshot and evaluates entirely
// against it, so a query observes either all of a mutation batch or none
// of it, a batch query answers a repeated focal identically within the
// batch, and a mutation never perturbs a query already in flight (the old
// snapshot stays alive until its last reader finishes). Writers are
// serialized against each other and publish a new snapshot per batch;
// each publish bumps Epoch, which is what invalidates epoch-keyed result
// caches automatically.
//
// When the delta fraction crosses WithCompactThreshold (default 0.25; a
// negative threshold disables the trigger), a background merge rebuilds a
// block-contiguous store and index from the live set and swaps it in;
// Compact forces the merge synchronously. Compaction does not change the
// live set, so it does not bump the epoch, and post-merge reads are
// indistinguishable from a never-mutated relation — flat spans, SIMD
// scans, zero allocations steady-state. DeltaStats reports the epoch,
// delta residency, tombstone count and lifetime mutation/compaction
// totals. ShardedRelation does not accept mutations yet; partition
// routing of writes is an open roadmap item.
//
// # Robustness
//
// Every query entry point is cancellable and deadline-aware through
// WithContext(ctx): the selection scans, join loops and sharded probes
// checkpoint the bound context once per index-block span — never per
// point, so the batched distance kernels run uninterrupted and the hot
// paths keep their zero-allocation property. A query whose context ends
// mid-flight stops within a block scan and returns an error wrapping both
// ErrQueryCanceled and the context's own error; no partial results escape,
// every borrowed searcher handle returns to its pool, and the operation
// counters recorded before the abort are still folded into WithStats
// targets. The checkpoint costs one atomic flag load: a per-binding
// watcher goroutine waits on the context's channel off the query path.
//
// On a WithMaxSearchers-bounded relation the context also bounds the wait
// for a free handle — the shed-load contract documented on
// ErrSearchersExhausted. OutstandingSearchers on both relation types
// reports the handles currently out, for leak checks and load metrics.
//
// Worker panics are isolated: a panic in any parallel worker or sharded
// probe is recovered at its goroutine boundary, the remaining workers
// stand down, handles are released, counters are folded, and the caller
// receives a *QueryPanicError (wrapping ErrQueryPanic) carrying the panic
// value and the panicking goroutine's stack. The process never crashes on
// a query-internal panic. The internal/fault package provides the
// deterministic injection hooks (cancel-after-N-blocks, panic-at-block-M,
// slow-shard-probe, pool-acquire) that the cancellation battery and chaos
// suite use to verify all of the above under the race detector.
//
// # Serving
//
// The engine is servable over HTTP/JSON: cmd/knnserve holds one named
// dataset (a Relation or ShardedRelation built from a dataset spec) per
// -dataset flag and exposes all eight query entry points as POST routes
// under /v1/query/, the two mutation routes under /v1/data/, plus /metrics
// and /healthz; every POST route is one entry of a route table and runs
// one request lifecycle. The wire layer (internal/server) carries results
// as stable int32 point IDs plus coordinates and adds nothing to the
// answer — an end-to-end differential battery holds every served route
// byte-identical (after canonical sort) to the direct in-process call.
//
// The error taxonomy above maps directly onto statuses: a bounded pool's
// ErrSearchersExhausted (and the server's own per-dataset inflight gate)
// sheds load as 429 with a Retry-After hint; an expired request budget —
// the server's -timeout, a dataset's timeout_ms/max_timeout_ms spec
// segments and the request's own timeout_ms resolved by the min rule,
// flowed into the engine via WithContext — surfaces ErrQueryCanceled as
// 504; a remote dataset's shard unreachable through its whole replica set
// (ErrShardUnavailable) is 503 with a Retry-After hint; an
// isolated *QueryPanicError returns 500 with the process still serving;
// ErrNilRelation (unknown dataset) and ErrNonPositiveK are 400s. Request
// decoding is strict (unknown fields and trailing bytes are rejected) and
// fuzzed for lossless round-tripping. See the README's "Serving" section
// for curl-able examples of every query shape.
//
// # Batched execution and result caching
//
// KNNSelectBatch and TwoSelectsBatch evaluate many focal points against one
// Source in a single call. A batch of selects is the kNN-join of its focal
// list against the relation (§2 of the paper), and it runs as that join's
// focal group: the sequential searcher focal by focal on one borrowed
// handle, so the whole batch reads one snapshot. A sharded source probes
// each focal under the shard skip; a remote one sends the whole batch as
// one focal group per wave, so a batch costs the round trips of one select
// (two for TwoSelectsBatch). Per-focal results are byte-identical to
// calling KNNSelect (or TwoSelects) in a loop, at the same operation counts
// — a differential matrix and the FuzzKNNSelectBatch target enforce this
// across index kinds and sharded sources.
//
// Above the batch sits an epoch-guarded result cache. Relation and
// ShardedRelation carry a monotonic dataset epoch (Epoch reads it;
// Invalidate bumps it by hand, and on a Relation every Insert, Remove and
// Update batch bumps it automatically);
// internal/qcache memoizes (epoch, focal, k, shape) →
// stable-ID answers in a bounded, sharded-lock map whose hit path
// allocates nothing. Because the epoch is part of the key, invalidation is
// O(1) and stale entries can never be served. Cache probes are counted by
// the CacheHits/CacheMisses stats counters; the serving layer exposes them
// per dataset on /metrics and serves repeated focals from the cache on the
// POST /v1/query/knn-select-batch route.
//
// # Sharding
//
// NewShardedRelation partitions one logical point set across S shards,
// each an independently indexed sub-relation with its own columnar store,
// spatial index and searcher pool. Every query function accepts any mix of
// *Relation, *ShardedRelation and *RemoteRelation operands (the Source
// interface) and runs the one body each algorithm has over them: a sharded
// outer side is scanned shard after shard, and a sharded inner side answers
// each neighborhood by scatter/gather — per-shard candidate generation,
// then an exact merge that re-selects the global k by the repository-wide
// (distance, X, Y) tie order. WithAlgorithm, WithJoinOrder, WithChainedQEP
// and WithExhaustivePreprocessing so mean the same on every backing. One
// step needs more than a sharded operand has, and falls back — as EXPLAIN
// reports — to its exhaustive form: Block-Marking's contour early-stop
// needs one space-tiling outer index. The unchained joins' Procedure 4
// prunes blocks and tuples on every backing, since it asks B only for
// neighborhoods and counts. The guarantee is exactness, not
// approximation: the global k nearest neighbors of any point are a subset
// of the union of the per-shard k nearest, so the merged answer — and
// every query shape built on it — is byte-identical to the single-relation
// evaluation (join shapes are returned in canonical SortPairs/SortTriples
// order; KNNSelect and TwoSelects keep the single-relation order). A
// differential oracle suite enforces this across shard counts, both
// partitioning policies, both index kinds and uniform/clustered data.
//
// Two partitioning policies are available through WithShardPolicy:
// HashSharding (default) scatters points by a hash of their stable ID for
// tight size balance, and SpatialSharding tiles space STR-style so each
// shard owns a compact tile — probes then skip shards whose bounds lie
// strictly farther than k already-gathered candidates, keeping distant
// tiles free. Stable point IDs are global: a point keeps its input
// position as identity no matter which shard indexes it. Per-shard
// lifetime operation counters and their aggregate are available through
// ShardedRelation.Snapshot; WithMaxSearchers bounds each shard's pool
// individually.
//
// Internally (relevant only to code using the internal packages): a
// locality.Neighborhood returned by a Searcher is owned by that searcher
// and valid only until its next query — retain it across queries with
// Clone. That rule is what makes the pool handles allocation-free.
//
// # Distribution
//
// The scatter/gather seam crosses process boundaries. DialRemote connects
// to a fleet of shard servers (cmd/knnshard, each serving one shard's
// candidate-generation contract over an HTTP/JSON probe protocol) and
// returns a *RemoteRelation — a Source accepted by every query entry
// point, under the same algorithm bodies as any other. The
// coordinator-side merge, MINDIST-ordered shard skip and Block-Marking
// thresholds are the same code as the in-process sharded path; squared distances and coordinates cross the wire as shortest
// round-trip JSON float64s, so remote answers are byte-identical to local
// ones, and Block-Marking's exclusions double as network-transfer pruning.
// Every shard process loads the full dataset spec and partitions locally
// with the same deterministic policy, so stable IDs remain global input
// positions with no shard-assignment service.
//
// What differs from the in-process path is the granularity, because a
// remote call costs a round trip whatever it carries. The unit of remote
// work is the focal group — the focal of a select, all selected points of
// an outer-join, all points of an outer block, all focals of a batch — sent
// to a shard in one request and answered on one searcher handle; the unit
// of remote latency is the wave, one request per shard with every shard's
// request in flight at once. Each focal goes to its nearest shard(s) in a
// first wave and, in a second, to exactly the shards its k-th distance so
// far does not rule out — the in-process skip rule, applied wave by wave.
// A select, an outer-join or a 64-focal batch over a hash-partitioned
// fleet is one wave; two selects are two.
//
// Each remote request travels under a robustness envelope configured by
// RemoteConfig: a per-attempt deadline, bounded retries with exponential
// backoff and jitter, a hedged second request once the probe outlives the
// fleet's observed latency quantile, a per-endpoint circuit breaker
// (closed/open/half-open with probe-through), and failover across a
// shard's replica endpoints in breaker-aware order. By default an
// unreachable shard fails the query closed — exact or nothing — with an
// error wrapping ErrShardUnavailable; WithPartialResults opts a query into
// graceful degradation instead, returning the reachable shards' exact
// answer alongside a *PartialResultError naming the missing shards.
// RemoteRelation.RemoteStats snapshots the per-endpoint
// attempt/retry/hedge/breaker/failover counters that the serving layer
// republishes on /metrics. The differential batteries hold every query
// shape byte-identical across in-process, loopback-transport and
// multi-process deployments, including under injected faults (the
// internal/fault hooks DropProbe, DelayProbe, ResetConn and
// CorruptResponse) with replicas standing in.
//
// # Performance notes
//
// The kNN primitive underneath every query — one neighborhood computation
// per tuple — is allocation-free in steady state. Each searcher owns its
// MINDIST/MAXDIST block iterators (reset per query instead of rebuilt), a
// k-selection buffer, and a single reusable result buffer. The buffer fills
// unsorted, is heapified once when it reaches k, and is sorted once when the
// result is extracted; block-level pruning skips blocks whose MINDIST
// exceeds the running k-th-neighbor distance. Intersecting two
// neighborhoods binary-searches the second one's sorted order.
//
// Join rows are written once, at their final size: a sequential kNN-join
// allocates its |outer|·min(k, |inner|) pairs up front, and the unchained
// intersection and the chained QEPs count their triples before writing
// them, one side's points counting-sorted into one flat array under dense
// int32 ids of the distinct b values — no slice per b, no append regrowth.
//
// The reuse imposes an ownership contract on the internal layers: a
// locality.Neighborhood returned by a Searcher is valid only until the next
// query on that searcher, so callers that retain results must copy them out
// (Neighborhood.Clone). The public API of this package is unaffected —
// query functions return freshly allocated result slices the caller owns.
// Allocation regressions are guarded by AllocsPerRun tests (measured with
// the collector paused, testutil.AllocsPerRun) in internal/locality,
// internal/core and this package, and the hot-path benchmarks
// (go test -bench 'KNNJoin|Neighborhood') are recorded per PR in the
// BENCH_PR*.json files at the repository root.
//
// # Memory layout
//
// Point storage is columnar (structure-of-arrays): each Relation owns one
// flat PointStore — separate X and Y float64 columns plus a parallel
// stable-ID column — that its index permuted into block-contiguous order at
// build time. An index block is a (offset, length) span into that store,
// not a slice of Point structs. The layout exists for the distance-scan
// inner loop, the dominant cost of every query shape once allocations and
// lock contention are gone: scanning two contiguous float64 arrays streams
// through the cache at full line utilization and compiles to straight-line
// arithmetic with no struct loads, where the former array-of-structs
// layout made every candidate a 16-byte strided struct copy behind a
// per-block slice header. BenchmarkLayoutScanSoA and BenchmarkLayoutScanAoS
// measure both layouts over identical blocks; the numbers the abl-layout
// experiment recorded at the change are in the BENCH_PR3.json trajectory
// file.
//
// The permutation is invisible to results (the cross-layout equivalence
// tests in internal/core pin byte-identical answers on all index families)
// and is inverted by stable point IDs: a point's ID is its position in the
// slice passed to NewRelation, fixed for the relation's lifetime and
// independent of which index kind placed it where. PointID, PointAt,
// PointIDs and PointByID expose the mapping. Stable IDs are the identity
// primitive layers above snapshots build on — streaming results by ID,
// sharding relations and gathering per-shard answers, or diffing
// consecutive snapshots — without pinning any particular index layout.
//
// # Vectorized kernels
//
// The distance-scan primitive the columnar layout was built for — squared
// distance of a query point to every point of a block span, compared
// against a bound — runs through one batched kernel layer
// (internal/kernel) instead of per-call-site loops. The layer provides
// DistSq (span → scratch distances), CountWithin (fused bounded count),
// MinDistSq/ArgMinDistSq (fused nearest-candidate reductions) and
// SelectWithin (compress-store of qualifying lane indices), each with a
// pure-Go scalar reference and a hand-written AVX2 implementation selected
// at init by CPUID feature detection on amd64. The locality searcher's
// selection-heap feed batches span distances into per-searcher scratch and,
// once the heap holds k candidates, compress-selects only the lanes that
// can displace one; the Counting algorithm's per-tuple search threshold is
// one fused MinDistSq over the flattened σ-neighborhood; radius filters
// and the sharded probes ride the same layer.
//
// Three properties make the fast paths safe to dispatch silently:
//
//   - Bit-exactness: the AVX2 kernels perform the scalar loop's float64
//     operations in the same per-lane order with no FMA contraction, and
//     bound comparisons use ordered predicates (NaN never qualifies), so
//     every kernel returns bit-identical results and the repository-wide
//     (distance, X, Y) tie order — hence every query answer — is unchanged.
//     A cross-kernel equivalence matrix (all query shapes × index kinds ×
//     single/sharded sources) and a kernel-level fuzz target enforce this.
//   - Grain-adaptive dispatch: spans shorter than kernel.BatchGrain
//     (32 lanes on AVX2) keep fused scalar loops — the assembly call's
//     fixed cost exceeds the vector win on tiny blocks — so block-capacity
//     tuning, not correctness, decides how much SIMD a workload sees.
//   - An always-available escape hatch: building with `-tags purego`
//     removes the assembly entirely and runs the scalar reference, which CI
//     exercises as a first-class configuration; on AVX2 hosts CI asserts
//     the fast path actually dispatched (kernel.Active() == "avx2").
//
// BENCH_PR5.json holds the scalar-vs-AVX2 numbers the abl-kernel experiment
// recorded per scan grain and query shape; the standing benchmark tracks the
// layer as kernel.{distsq,countwithin,selectwithin}_ns_per_pt, alongside
// the per-kernel micro-benchmarks in internal/kernel.
package twoknn
