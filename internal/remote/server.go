package remote

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/stats"
)

// ShardServerConfig names what a ShardServer serves.
type ShardServerConfig struct {
	// Name is the dataset name reported by /shard/v1/info.
	Name string

	// Shard and Shards are this process's position in the partition layout.
	// The coordinator validates them at dial time. Shards == 0 disables the
	// check (a standalone shard).
	Shard  int
	Shards int

	// Index labels the index family in /shard/v1/info (diagnostic).
	Index string

	// Epoch is the served snapshot's epoch (defaults to 1).
	Epoch uint64
}

// ShardServer serves one shard's candidate-generation contract over the
// HTTP/JSON shard-probe protocol. It is an http.Handler; cmd/knnshard
// mounts one per process, and the loopback transport calls its probe logic
// directly (same code path, no sockets) for single-process layouts.
//
// Every probe borrows a searcher handle from the relation's pool and binds
// it to the request context, so a disconnected or hedged-away client
// cancels the server-side scan at the next block checkpoint.
type ShardServer struct {
	rel *core.Relation
	cfg ShardServerConfig
	mux *http.ServeMux

	// counters is the shard's lifetime operation tally across all probes
	// (served by /metrics next to the per-op counts).
	counters stats.Counters

	probes [3]atomic.Int64 // per-Op served probes
	blocks atomic.Int64    // block-points fetches served
	errs   atomic.Int64    // requests answered with a non-2xx status
}

// NewShardServer builds the server for one shard relation.
func NewShardServer(rel *core.Relation, cfg ShardServerConfig) *ShardServer {
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	s := &ShardServer{rel: rel, cfg: cfg}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc(pathPrefix+"/neighborhood", s.handleProbe(OpNeighborhood))
	s.mux.HandleFunc(pathPrefix+"/neighborhood-within", s.handleProbe(OpWithin))
	s.mux.HandleFunc(pathPrefix+"/count-closer", s.handleProbe(OpCount))
	s.mux.HandleFunc(pathPrefix+"/info", s.handleInfo)
	s.mux.HandleFunc(pathPrefix+"/blocks", s.handleBlocks)
	s.mux.HandleFunc(pathPrefix+"/block", s.handleBlock)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *ShardServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Relation returns the served shard relation (the loopback transport's
// direct path).
func (s *ShardServer) Relation() *core.Relation { return s.rel }

// Counters returns the shard's lifetime operation counters.
func (s *ShardServer) Counters() *stats.Counters { return &s.counters }

// info assembles the shard's identity card.
func (s *ShardServer) info() Info {
	return Info{
		Name:   s.cfg.Name,
		Shard:  s.cfg.Shard,
		Shards: s.cfg.Shards,
		Len:    s.rel.Len(),
		Bounds: rectToWire(s.rel.Ix.Bounds()),
		Index:  s.cfg.Index,
		Epoch:  s.cfg.Epoch,
		Blocks: len(s.rel.Ix.Blocks()),
	}
}

// blockHeaders assembles the outer-side block listing.
func (s *ShardServer) blockHeaders() []BlockHeader {
	blks := s.rel.Ix.Blocks()
	out := make([]BlockHeader, len(blks))
	for i, b := range blks {
		out[i] = BlockHeader{Span: rectToWire(b.Bounds), Count: b.Count()}
	}
	return out
}

// blockPoints returns block i's points with stable IDs, or an error for an
// out-of-range index.
func (s *ShardServer) blockPoints(i int) (*BlockPointsResponse, error) {
	blks := s.rel.Ix.Blocks()
	if i < 0 || i >= len(blks) {
		return nil, fmt.Errorf("block %d out of range [0,%d)", i, len(blks))
	}
	b := blks[i]
	xs, ys := b.XYs()
	resp := &BlockPointsResponse{
		IDs: append([]int32(nil), b.PointIDs()...),
		Xs:  append([]float64(nil), xs...),
		Ys:  append([]float64(nil), ys...),
	}
	s.blocks.Add(1)
	return resp, nil
}

// probe answers one focal group on one borrowed searcher handle, with the
// same searcher call per focal a one-focal request gets. It is the single
// implementation behind both the HTTP handler and the loopback transport.
// The response's Stats carry the group's summed counter delta; the shard's
// lifetime counters accumulate it too. It fails on a malformed group, or
// when ctx ends before a handle frees up.
func (s *ShardServer) probe(ctx context.Context, op Op, req *ProbeRequest) (*ProbeResponse, error) {
	if err := req.validate(op); err != nil {
		return nil, err
	}
	h, err := s.rel.AcquireCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer h.Release()

	var delta stats.Counters
	n := req.focals()
	resp := &ProbeResponse{}
	if n > 1 && op != OpCount {
		resp.Offs = make([]int, 1, n+1)
	}
	for i := 0; i < n; i++ {
		p, thresholdSq := req.focal(i)
		switch op {
		case OpCount:
			count := h.S.CountStrictlyCloser(p, req.K, thresholdSq, &delta)
			if n == 1 {
				resp.Count = count
			} else {
				resp.Counts = append(resp.Counts, count)
			}
			continue
		case OpWithin:
			appendCandidates(resp, p, h.S.NeighborhoodWithinSq(p, req.K, thresholdSq, &delta).Points)
		default:
			appendCandidates(resp, p, h.S.Neighborhood(p, req.K, &delta).Points)
		}
		if n > 1 {
			resp.Offs = append(resp.Offs, len(resp.Xs))
		}
	}
	d := delta.Snapshot()
	resp.Stats = WireStats{
		Neighborhoods:  d.Neighborhoods,
		BlocksScanned:  d.BlocksScanned,
		PointsCompared: d.PointsCompared,
		BlocksPruned:   d.BlocksPruned,
		OuterSkipped:   d.OuterSkipped,
	}
	s.counters.Add(&delta)
	s.probes[op].Add(1)
	return resp, nil
}

// appendCandidates encodes one focal's neighborhood as the response's next
// wire candidates: coordinates and the squared distance to the focal
// recomputed from them (exactly the comparison key of the
// coordinator's merge — the neighborhood's Dists are sqrt values, and
// appendSpans on the far side restores Dists = Sqrt(dSq)).
func appendCandidates(resp *ProbeResponse, center geom.Point, pts []geom.Point) {
	resp.Xs = slices.Grow(resp.Xs, len(pts))
	resp.Ys = slices.Grow(resp.Ys, len(pts))
	resp.DSqs = slices.Grow(resp.DSqs, len(pts))
	for _, p := range pts {
		resp.Xs = append(resp.Xs, p.X)
		resp.Ys = append(resp.Ys, p.Y)
		resp.DSqs = append(resp.DSqs, center.DistSq(p))
	}
}

// handleProbe decodes, executes, and encodes one probe op.
func (s *ShardServer) handleProbe(op Op) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			s.error(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		var req ProbeRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.error(w, http.StatusBadRequest, "malformed probe request: "+err.Error())
			return
		}
		defer func() {
			// A cancellation checkpoint unwinds by panic when the client's
			// context dies mid-scan (disconnect, hedge loser cancellation);
			// contain it to this request.
			if rec := recover(); rec != nil {
				if _, ok := rec.(*fault.Cancel); ok {
					s.error(w, http.StatusGatewayTimeout, "probe canceled")
					return
				}
				panic(rec)
			}
		}()
		resp, err := s.probe(r.Context(), op, &req)
		if err != nil {
			status := http.StatusBadRequest
			if r.Context().Err() != nil {
				status = http.StatusGatewayTimeout
			}
			s.error(w, status, err.Error())
			return
		}
		s.write(w, resp)
	}
}

func (s *ShardServer) handleInfo(w http.ResponseWriter, r *http.Request) {
	info := s.info()
	s.write(w, &info)
}

func (s *ShardServer) handleBlocks(w http.ResponseWriter, r *http.Request) {
	s.write(w, &BlocksResponse{Blocks: s.blockHeaders()})
}

func (s *ShardServer) handleBlock(w http.ResponseWriter, r *http.Request) {
	i, err := strconv.Atoi(r.URL.Query().Get("i"))
	if err != nil {
		s.error(w, http.StatusBadRequest, "block index ?i=N required")
		return
	}
	resp, err := s.blockPoints(i)
	if err != nil {
		s.error(w, http.StatusBadRequest, err.Error())
		return
	}
	s.write(w, resp)
}

func (s *ShardServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(`{"status":"ok"}` + "\n"))
}

// shardMetrics is the /metrics body of a shard process.
type shardMetrics struct {
	Info         Info             `json:"info"`
	Probes       map[string]int64 `json:"probes"`
	BlockFetches int64            `json:"block_fetches"`
	Errors       int64            `json:"errors"`
	Stats        stats.Counters   `json:"stats"`
}

func (s *ShardServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := shardMetrics{
		Info: s.info(),
		Probes: map[string]int64{
			OpNeighborhood.String(): s.probes[OpNeighborhood].Load(),
			OpWithin.String():       s.probes[OpWithin].Load(),
			OpCount.String():        s.probes[OpCount].Load(),
		},
		BlockFetches: s.blocks.Load(),
		Errors:       s.errs.Load(),
		Stats:        s.counters.Snapshot(),
	}
	s.write(w, &m)
}

func (s *ShardServer) write(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *ShardServer) error(w http.ResponseWriter, status int, msg string) {
	s.errs.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(wireError{Error: msg})
}
