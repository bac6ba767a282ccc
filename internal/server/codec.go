package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	twoknn "repro"
)

// This file is the wire codec: one typed request struct per query route, the
// shared response envelope, and the strict JSON decoder every handler runs
// requests through. Decoding is strict by design — unknown fields, trailing
// data and oversized bodies are rejected — so a request either maps exactly
// onto a struct or fails with 400; FuzzRequestDecode holds the codec to "no
// panic, and every accepted request re-encodes and re-decodes to the same
// value".

// maxRequestBytes bounds a request body; queries are tiny, so anything
// larger is a client error (or abuse), not a query.
const maxRequestBytes = 1 << 20

// PointArg is a coordinate pair in a request (focal points).
type PointArg struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Point converts to the engine's point type.
func (p PointArg) Point() twoknn.Point { return twoknn.Point{X: p.X, Y: p.Y} }

// RectArg is a closed axis-aligned rectangle in a request (range
// predicates). Corner order is normalized server-side, like twoknn.NewRect.
type RectArg struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

// Rect converts to the engine's rectangle type, normalizing corner order.
func (r RectArg) Rect() twoknn.Rect { return twoknn.NewRect(r.MinX, r.MinY, r.MaxX, r.MaxY) }

// Common carries the fields every query request accepts.
type Common struct {
	// TimeoutMS caps the request's evaluation budget in milliseconds. The
	// effective deadline is min(server budget, TimeoutMS); zero means the
	// server budget alone. Negative values are rejected.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Algorithm forces the evaluation strategy for the *-inner-join routes:
	// "auto" (default when empty: Block-Marking's block prune, then
	// Counting's tuple prune), "conceptual", "counting" or "block-marking"
	// (one of the paper's algorithms alone). Other routes accept and ignore
	// it, mirroring twoknn.WithAlgorithm.
	Algorithm string `json:"algorithm,omitempty"`

	// Explain asks for an EXPLAIN rendering of the executed plan in the
	// response.
	Explain bool `json:"explain,omitempty"`
}

// Validate implements Request for every query request type, which embed
// Common. It is the codec-level check: structural validity only. Semantic
// validation (k > 0, dataset exists) is the engine's job — its typed errors
// map onto HTTP statuses in the handler layer.
func (c Common) Validate() error {
	if c.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be non-negative, got %d", c.TimeoutMS)
	}
	if c.Algorithm == "" {
		return nil // auto
	}
	_, err := ParseAlgorithm(c.Algorithm)
	return err
}

// common returns the embedded Common of a query request.
func (c *Common) common() *Common { return c }

// Request is the interface every typed request struct implements; Validate
// is the codec-level (structural) check run right after decoding.
type Request interface {
	Validate() error
}

// KNNSelectRequest asks for σ_{k,f}(dataset): POST /v1/query/knn-select.
type KNNSelectRequest struct {
	Dataset string   `json:"dataset"`
	F       PointArg `json:"f"`
	K       int      `json:"k"`
	Common
}

// KNNSelectBatchRequest asks for σ_{k,f}(dataset) for every focal point of
// one batch: POST /v1/query/knn-select-batch. Results come back per focal in
// input order, each byte-identical to the knn-select route's answer for that
// focal; repeated focals are served from the dataset's epoch-keyed result
// cache.
type KNNSelectBatchRequest struct {
	Dataset string     `json:"dataset"`
	Focals  []PointArg `json:"focals"`
	K       int        `json:"k"`
	Common
}

// KNNJoinRequest asks for outer ⋈kNN inner: POST /v1/query/knn-join.
type KNNJoinRequest struct {
	Outer string `json:"outer"`
	Inner string `json:"inner"`
	K     int    `json:"k"`
	Common
}

// SelectInnerJoinRequest asks for (outer ⋈kNN inner) ∩ (outer ×
// σ_{kSel,f}(inner)): POST /v1/query/select-inner-join.
type SelectInnerJoinRequest struct {
	Outer string   `json:"outer"`
	Inner string   `json:"inner"`
	F     PointArg `json:"f"`
	KJoin int      `json:"k_join"`
	KSel  int      `json:"k_sel"`
	Common
}

// SelectOuterJoinRequest asks for (σ_{kSel,f}(outer)) ⋈kNN inner: POST
// /v1/query/select-outer-join.
type SelectOuterJoinRequest struct {
	Outer string   `json:"outer"`
	Inner string   `json:"inner"`
	F     PointArg `json:"f"`
	KSel  int      `json:"k_sel"`
	KJoin int      `json:"k_join"`
	Common
}

// TwoSelectsRequest asks for σ_{k1,f1}(dataset) ∩ σ_{k2,f2}(dataset): POST
// /v1/query/two-selects.
type TwoSelectsRequest struct {
	Dataset string   `json:"dataset"`
	F1      PointArg `json:"f1"`
	K1      int      `json:"k1"`
	F2      PointArg `json:"f2"`
	K2      int      `json:"k2"`
	Common
}

// UnchainedJoinsRequest asks for (a ⋈kNN b) ∩B (c ⋈kNN b): POST
// /v1/query/unchained-joins.
type UnchainedJoinsRequest struct {
	A   string `json:"a"`
	B   string `json:"b"`
	C   string `json:"c"`
	KAB int    `json:"k_ab"`
	KCB int    `json:"k_cb"`
	Common
}

// ChainedJoinsRequest asks for the chain a→b→c: POST
// /v1/query/chained-joins.
type ChainedJoinsRequest struct {
	A   string `json:"a"`
	B   string `json:"b"`
	C   string `json:"c"`
	KAB int    `json:"k_ab"`
	KBC int    `json:"k_bc"`
	Common
}

// RangeInnerJoinRequest asks for the Section 3 footnote-1 extension — pairs
// whose right point lies in the rectangle: POST /v1/query/range-inner-join.
type RangeInnerJoinRequest struct {
	Outer string  `json:"outer"`
	Inner string  `json:"inner"`
	Range RectArg `json:"range"`
	KJoin int     `json:"k_join"`
	Common
}

// InsertRequest appends points to a mutable dataset: POST /v1/data/insert.
// Only single (un-sharded) relations accept mutations; the route answers 400
// for sharded datasets.
type InsertRequest struct {
	Dataset string     `json:"dataset"`
	Points  []PointArg `json:"points"`
}

// Validate implements Request.
func (r *InsertRequest) Validate() error {
	if len(r.Points) == 0 {
		return fmt.Errorf("insert requires at least one point")
	}
	return nil
}

// RemoveRequest removes points from a mutable dataset by stable ID: POST
// /v1/data/remove. IDs that are not live are skipped, not errors — the
// response's removed count reports how many actually went away.
type RemoveRequest struct {
	Dataset string  `json:"dataset"`
	IDs     []int32 `json:"ids"`
}

// Validate implements Request.
func (r *RemoveRequest) Validate() error {
	if len(r.IDs) == 0 {
		return fmt.Errorf("remove requires at least one id")
	}
	for _, id := range r.IDs {
		if id < 0 {
			return fmt.Errorf("ids must be non-negative, got %d", id)
		}
	}
	return nil
}

// MutateResponse is the body of a successful mutation: the post-mutation
// epoch and cardinality, plus the route-specific effect (assigned IDs for
// inserts, removed count for removes). Any result cached under an earlier
// epoch is unreachable from here on.
type MutateResponse struct {
	// IDs are the stable IDs assigned to inserted points, in input order
	// (insert route only).
	IDs []int32 `json:"ids,omitempty"`

	// Removed is the number of live points actually removed (remove route
	// only; dead or unknown IDs don't count).
	Removed int `json:"removed"`

	// Epoch is the dataset's data version after the mutation.
	Epoch uint64 `json:"epoch"`

	// Len is the dataset's cardinality after the mutation.
	Len int `json:"len"`
}

// PointRow is one result point on the wire: the stable int32 point ID (input
// position in the dataset the point came from; -1 if unresolvable) plus its
// coordinates.
type PointRow struct {
	ID int32   `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

// PairRow is one kNN-join result row.
type PairRow struct {
	Left  PointRow `json:"left"`
	Right PointRow `json:"right"`
}

// TripleRow is one two-join result row.
type TripleRow struct {
	A PointRow `json:"a"`
	B PointRow `json:"b"`
	C PointRow `json:"c"`
}

// QueryResponse is the shared response envelope; exactly one of Points,
// Pairs, Triples and Batches is set, matching the route's result shape. Rows
// come back in the engine's order (ascending (distance, X, Y) for selects,
// evaluation order for joins — canonical SortPairs/SortTriples order when
// any operand is sharded).
type QueryResponse struct {
	Points  []PointRow  `json:"points,omitempty"`
	Pairs   []PairRow   `json:"pairs,omitempty"`
	Triples []TripleRow `json:"triples,omitempty"`

	// Batches is the knn-select-batch result: one point list per focal, in
	// focal input order.
	Batches [][]PointRow `json:"batches,omitempty"`

	// Count is the number of result rows (len of the set field; total rows
	// across all Batches for the batch route), present even when the result
	// is empty.
	Count int `json:"count"`

	// Stats are the query's operation counters.
	Stats twoknn.Stats `json:"stats"`

	// Explain is the EXPLAIN rendering when the request asked for one.
	Explain string `json:"explain,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	// Error is the full error string, including the engine's typed
	// sentinel text (e.g. "twoknn: query canceled: ...").
	Error string `json:"error"`

	// Code is a stable machine-readable discriminator: "bad_request",
	// "shed_load", "deadline", "shard_unavailable", "panic" or "internal".
	Code string `json:"code"`
}

// DecodeRequest strictly decodes a JSON request body into dst: unknown
// fields, trailing data, bodies over 1 MiB and structural invalidity
// (Validate) are errors.
func DecodeRequest(body io.Reader, dst Request) error {
	data, err := io.ReadAll(io.LimitReader(body, maxRequestBytes+1))
	if err != nil {
		return fmt.Errorf("reading request body: %w", err)
	}
	if len(data) > maxRequestBytes {
		return fmt.Errorf("request body exceeds %d bytes", maxRequestBytes)
	}
	return DecodeRequestBytes(data, dst)
}

// DecodeRequestBytes is DecodeRequest over an in-memory body (the form the
// fuzz target drives).
func DecodeRequestBytes(data []byte, dst Request) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	// A request is one JSON value; trailing non-space content is a
	// malformed request, not extra queries.
	if dec.More() {
		return fmt.Errorf("decoding request: trailing data after JSON value")
	}
	return dst.Validate()
}

// EncodeRequest renders a request struct back into the exact form
// DecodeRequestBytes accepts — the client-side encoder, and the round-trip
// partner the fuzz target checks losslessness with.
func EncodeRequest(req Request) ([]byte, error) {
	return json.Marshal(req)
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the connection is the only failure mode left
}
