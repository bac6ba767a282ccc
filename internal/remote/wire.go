// Package remote lifts the scatter/gather layer onto multi-process layouts:
// it implements the shard.Member / shard.Prober transport seam over an
// HTTP/JSON shard-probe protocol, with a robustness envelope — per-probe
// deadlines, bounded retries with jittered exponential backoff, hedged
// second requests, per-endpoint circuit breakers, and replica failover —
// between the coordinator and each shard process.
//
// # Exactness over the wire
//
// The protocol ships candidate sets, not answers: each probe returns the
// shard-local top-k as coordinates and squared distances. Go's
// encoding/json formats float64 with strconv's shortest round-trip
// representation, so both cross the wire bit-exactly; the client rebuilds Dists as math.Sqrt(dSq) — precisely the
// computation the in-process searcher performs (locality's extractInto) —
// and the coordinator's k-way merge recomputes squared distances from
// coordinates exactly as it does for in-process shards. Remote results are
// therefore byte-identical to in-process execution, which the differential
// oracle at the module root enforces across layouts and under injected
// faults.
//
// # Protocol
//
// A shard process (cmd/knnshard) serves one shard's candidate-generation
// contract:
//
//	POST /shard/v1/neighborhood         focal group, k             → candidates per focal
//	POST /shard/v1/neighborhood-within  focal group, k, thresholds → candidates per focal
//	POST /shard/v1/count-closer         focal group, k, thresholds → count per focal
//	GET  /shard/v1/info                 shard identity, cardinality, bounds
//	GET  /shard/v1/blocks               outer-side block headers (MBR, count)
//	GET  /shard/v1/block?i=N            one block's points (lazy outer fetch)
//	GET  /healthz                       liveness
//	GET  /metrics                       per-op counters + searcher stats
//
// The unit of a probe request is the focal group: n ≥ 1 focals sharing one
// k, answered on one borrowed searcher handle with one searcher call per
// focal, in one response.
//
//	request   {x, y, k, threshold_sq}                 focal 0
//	          + xs, ys, thresholds_sq                 focals 1..n-1 (parallel arrays, omitted for n = 1)
//	response  {xs, ys, d_sqs, stats}                  flat candidates, focal after focal
//	          + offs                                  n+1 offsets: focal i owns [offs[i], offs[i+1]) (omitted for n = 1)
//	          {count} / {counts}                      count-closer: n = 1 / n > 1
//
// A one-focal request and its response therefore carry no group fields.
// A group holds at most
// MaxGroupFocals focals: the shard answers a larger one, ragged parallel
// arrays or a non-positive k with 400 (fatal, never retried), and the
// coordinator cuts a larger unit into consecutive requests at the same
// constant. stats is the summed counter delta of the whole group.
//
// One attempt is one request: the robustness envelope (deadline, retry,
// hedge, breaker, failover, response validation) wraps a group exactly as
// it wraps a single probe, and a truncated or shuffled group response is a
// transient, retried error like any other malformed body.
//
// Block headers let the coordinator run Block-Marking as a network-transfer
// prune: a marked non-contributing block's points are never fetched.
package remote

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/shard"
)

// Protocol version prefix of every route. Bump on incompatible changes; the
// coordinator rejects shards whose /shard/v1/info is absent or malformed.
const pathPrefix = "/shard/v1"

// Op names one probe operation of the candidate-generation contract.
type Op int

const (
	// OpNeighborhood is the shard-local top-k probe.
	OpNeighborhood Op = iota

	// OpWithin is the threshold-clipped top-k probe.
	OpWithin

	// OpCount is the conservative strictly-closer count.
	OpCount
)

// String returns the op's route suffix.
func (o Op) String() string {
	switch o {
	case OpWithin:
		return "neighborhood-within"
	case OpCount:
		return "count-closer"
	default:
		return "neighborhood"
	}
}

// MaxGroupFocals caps the focals of one probe request. The shard rejects a
// larger group with 400; the coordinator cuts a larger unit into consecutive
// requests at the same constant, so a request's size — and the shard-side
// work one attempt deadline has to cover — stays bounded however large the
// outer side of a join grows.
const MaxGroupFocals = 1024

// ProbeRequest is the body of every probe POST: a group of n ≥ 1 focals
// sharing one K. Focal 0 is (X, Y, ThresholdSq) — alone, that is the whole
// body — and focals 1..n-1 ride in the parallel arrays. Thresholds are
// ignored by OpNeighborhood, whose groups may omit ThresholdsSq.
type ProbeRequest struct {
	X           float64 `json:"x"`
	Y           float64 `json:"y"`
	K           int     `json:"k"`
	ThresholdSq float64 `json:"threshold_sq,omitempty"`

	Xs           []float64 `json:"xs,omitempty"`
	Ys           []float64 `json:"ys,omitempty"`
	ThresholdsSq []float64 `json:"thresholds_sq,omitempty"`
}

// focals returns the group size n.
func (r *ProbeRequest) focals() int { return 1 + len(r.Xs) }

// focal returns the group's i-th focal and its squared threshold.
func (r *ProbeRequest) focal(i int) (geom.Point, float64) {
	if i == 0 {
		return geom.Point{X: r.X, Y: r.Y}, r.ThresholdSq
	}
	t := 0.0
	if len(r.ThresholdsSq) > 0 {
		t = r.ThresholdsSq[i-1]
	}
	return geom.Point{X: r.Xs[i-1], Y: r.Ys[i-1]}, t
}

// validate rejects what no well-formed coordinator sends — the shard
// answers 400, which the envelope never retries.
func (r *ProbeRequest) validate(op Op) error {
	if r.K <= 0 {
		return fmt.Errorf("k must be positive, got %d", r.K)
	}
	if n := r.focals(); n > MaxGroupFocals {
		return fmt.Errorf("group of %d focals exceeds the cap of %d", n, MaxGroupFocals)
	}
	thresholds := len(r.ThresholdsSq) == len(r.Xs) || (op == OpNeighborhood && len(r.ThresholdsSq) == 0)
	if len(r.Ys) != len(r.Xs) || !thresholds {
		return fmt.Errorf("ragged focal arrays: xs=%d ys=%d thresholds_sq=%d",
			len(r.Xs), len(r.Ys), len(r.ThresholdsSq))
	}
	return nil
}

// WireStats is the operation-counter delta the shard recorded while serving
// the request (summed over the group's focals), folded into the
// coordinator's per-shard counters so WithStats accounts identically across
// layouts.
type WireStats struct {
	Neighborhoods  int64 `json:"neighborhoods,omitempty"`
	BlocksScanned  int64 `json:"blocks_scanned,omitempty"`
	PointsCompared int64 `json:"points_compared,omitempty"`
	BlocksPruned   int64 `json:"blocks_pruned,omitempty"`
	OuterSkipped   int64 `json:"outer_skipped,omitempty"`
}

// ProbeResponse carries a group's candidate sets: parallel arrays of
// coordinates and squared distances, focal after focal, each focal's
// candidates in the shard-local result order (ascending (distance, X, Y)).
// Stable IDs are not shipped: the coordinator resolves served rows through
// its render table, built from /shard/v1/block. For a group of n > 1 focals
// Offs holds the n+1 span boundaries; a one-focal response omits it (its
// span is everything). OpCount answers Count for one focal, Counts for more.
type ProbeResponse struct {
	Xs     []float64 `json:"xs,omitempty"`
	Ys     []float64 `json:"ys,omitempty"`
	DSqs   []float64 `json:"d_sqs,omitempty"`
	Offs   []int     `json:"offs,omitempty"`
	Count  int       `json:"count,omitempty"`
	Counts []int     `json:"counts,omitempty"`
	Stats  WireStats `json:"stats,omitempty"`
}

// validate rejects responses that are structurally broken for a group of n
// focals at k (truncated or shuffled arrays, spans no shard could have
// produced, negative counts) so corruption surfaces as a transient envelope
// error — retried and failed over — rather than as a wrong answer or an
// out-of-range index in the gather.
func (r *ProbeResponse) validate(op Op, n, k int) error {
	if r.Count < 0 {
		return fmt.Errorf("negative count %d", r.Count)
	}
	if op == OpCount {
		if n == 1 {
			if len(r.Counts) != 0 {
				return fmt.Errorf("%d counts for one focal", len(r.Counts))
			}
			return nil
		}
		if len(r.Counts) != n {
			return fmt.Errorf("%d counts for %d focals", len(r.Counts), n)
		}
		for _, c := range r.Counts {
			if c < 0 {
				return fmt.Errorf("negative count %d", c)
			}
		}
		return nil
	}
	m := len(r.Xs)
	if len(r.Ys) != m || len(r.DSqs) != m {
		return fmt.Errorf("ragged candidate arrays: xs=%d ys=%d dsqs=%d", m, len(r.Ys), len(r.DSqs))
	}
	if n == 1 {
		if len(r.Offs) != 0 {
			return fmt.Errorf("%d offsets for one focal", len(r.Offs))
		}
		if m > k {
			return fmt.Errorf("%d candidates for k=%d", m, k)
		}
		return nil
	}
	if len(r.Offs) != n+1 || r.Offs[0] != 0 || r.Offs[n] != m {
		return fmt.Errorf("offsets do not frame %d candidates of %d focals: %v", m, n, r.Offs)
	}
	for i := 0; i < n; i++ {
		if span := r.Offs[i+1] - r.Offs[i]; span < 0 || span > k {
			return fmt.Errorf("focal %d spans %d candidates for k=%d", i, span, k)
		}
	}
	return nil
}

// appendSpans appends a validated response's n candidate spans to ans as
// its next n spans. Dists[i] = Sqrt(DSqs[i]) is exactly the in-process
// searcher's computation, so a rebuilt neighborhood is byte-identical to a
// local probe's.
func (r *ProbeResponse) appendSpans(n int, ans *shard.GroupAnswer) {
	base := len(ans.Points)
	for i := range r.Xs {
		ans.Points = append(ans.Points, geom.Point{X: r.Xs[i], Y: r.Ys[i]})
		ans.Dists = append(ans.Dists, math.Sqrt(r.DSqs[i]))
	}
	if n == 1 {
		ans.Offs = append(ans.Offs, len(ans.Points))
		return
	}
	for _, off := range r.Offs[1:] {
		ans.Offs = append(ans.Offs, base+off)
	}
}

// appendCounts appends a validated count-closer response's n counts to ans.
func (r *ProbeResponse) appendCounts(n int, ans *shard.GroupAnswer) {
	if n == 1 {
		ans.Counts = append(ans.Counts, r.Count)
		return
	}
	ans.Counts = append(ans.Counts, r.Counts...)
}

// WireRect is a bounds rectangle on the wire.
type WireRect struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

func rectToWire(r geom.Rect) WireRect {
	return WireRect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}

func (w WireRect) rect() geom.Rect {
	return geom.Rect{MinX: w.MinX, MinY: w.MinY, MaxX: w.MaxX, MaxY: w.MaxY}
}

// Info is a shard process's identity card (GET /shard/v1/info): what it
// holds and where it believes it sits in the partition. The coordinator
// validates Shard/Shards against its own layout at dial time, so a
// mis-wired replica set fails fast instead of merging wrong candidates.
type Info struct {
	// Name is the serving dataset's name (diagnostic only).
	Name string `json:"name"`

	// Shard and Shards are this process's shard index and the total shard
	// count of the partition it was built from. Shards == 0 means the
	// process does not know the layout (a standalone shard).
	Shard  int `json:"shard"`
	Shards int `json:"shards"`

	// Len is the shard's cardinality; Bounds its index bounds (the
	// coordinator's MINDIST shard-skip key).
	Len    int      `json:"len"`
	Bounds WireRect `json:"bounds"`

	// Index names the index family; Epoch is the shard's snapshot epoch.
	Index string `json:"index"`
	Epoch uint64 `json:"epoch"`

	// Blocks is the shard's outer-side block count.
	Blocks int `json:"blocks"`
}

// BlockHeader describes one outer-side block without its points: MBR and
// count — everything Block-Marking needs to mark it non-contributing.
type BlockHeader struct {
	Span  WireRect `json:"span"`
	Count int      `json:"count"`
}

// BlocksResponse is GET /shard/v1/blocks.
type BlocksResponse struct {
	Blocks []BlockHeader `json:"blocks"`
}

// BlockPointsResponse is GET /shard/v1/block?i=N: one block's points with
// their stable IDs, in index span order.
type BlockPointsResponse struct {
	IDs []int32   `json:"ids"`
	Xs  []float64 `json:"xs"`
	Ys  []float64 `json:"ys"`
}

// validate rejects ragged block-point arrays.
func (r *BlockPointsResponse) validate() error {
	if len(r.Xs) != len(r.IDs) || len(r.Ys) != len(r.IDs) {
		return fmt.Errorf("ragged block arrays: ids=%d xs=%d ys=%d",
			len(r.IDs), len(r.Xs), len(r.Ys))
	}
	return nil
}

// wireError is the JSON error body of non-200 responses.
type wireError struct {
	Error string `json:"error"`
}
