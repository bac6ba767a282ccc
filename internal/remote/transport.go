package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/fault"
)

// ShardTransport moves one shard's probe protocol between coordinator and
// shard. Implementations must be safe for concurrent use (the envelope
// hedges requests on one transport while retries run on another).
type ShardTransport interface {
	// Endpoint names the transport for breakers, metrics, and the fault
	// injector (a URL, or the loopback transport's synthetic name).
	Endpoint() string

	// Probe executes one candidate-generation op, decoding into resp.
	Probe(ctx context.Context, op Op, req *ProbeRequest, resp *ProbeResponse) error

	// Info fetches the shard's identity card.
	Info(ctx context.Context) (*Info, error)

	// Blocks fetches the outer-side block headers.
	Blocks(ctx context.Context) ([]BlockHeader, error)

	// BlockPoints fetches one block's points.
	BlockPoints(ctx context.Context, block int) (*BlockPointsResponse, error)
}

// transportError classifies a transport failure for the envelope: transient
// failures (connection errors, 5xx, timeouts, malformed responses) are
// retried and failed over; fatal ones (4xx — a protocol or layout mistake)
// abort immediately, because every replica would answer the same.
type transportError struct {
	err       error
	transient bool
}

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// transientf builds a transient transport error.
func transientf(format string, args ...any) error {
	return &transportError{err: fmt.Errorf(format, args...), transient: true}
}

// fatalf builds a fatal transport error.
func fatalf(format string, args ...any) error {
	return &transportError{err: fmt.Errorf(format, args...), transient: false}
}

// isTransient reports whether the envelope should retry or fail over after
// err. Unclassified errors (transport-internal, context) default to
// non-transient: a parent-context cancellation must not burn retries.
func isTransient(err error) bool {
	var te *transportError
	if errors.As(err, &te) {
		return te.transient
	}
	return false
}

// HTTPTransport speaks the shard-probe protocol to one base URL.
type HTTPTransport struct {
	base   string
	client *http.Client
}

// NewHTTPTransport builds a transport for baseURL (scheme://host:port, no
// trailing slash required). client nil uses a dedicated default client;
// per-attempt deadlines come from the envelope's contexts, so the client
// itself carries no timeout.
func NewHTTPTransport(baseURL string, client *http.Client) *HTTPTransport {
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	if client == nil {
		client = &http.Client{}
	}
	return &HTTPTransport{base: baseURL, client: client}
}

// Endpoint implements ShardTransport.
func (t *HTTPTransport) Endpoint() string { return t.base }

// Probe implements ShardTransport.
func (t *HTTPTransport) Probe(ctx context.Context, op Op, req *ProbeRequest, resp *ProbeResponse) error {
	return t.post(ctx, pathPrefix+"/"+op.String(), req, resp)
}

// Info implements ShardTransport.
func (t *HTTPTransport) Info(ctx context.Context) (*Info, error) {
	var info Info
	if err := t.get(ctx, pathPrefix+"/info", &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Blocks implements ShardTransport.
func (t *HTTPTransport) Blocks(ctx context.Context) ([]BlockHeader, error) {
	var resp BlocksResponse
	if err := t.get(ctx, pathPrefix+"/blocks", &resp); err != nil {
		return nil, err
	}
	return resp.Blocks, nil
}

// BlockPoints implements ShardTransport.
func (t *HTTPTransport) BlockPoints(ctx context.Context, block int) (*BlockPointsResponse, error) {
	var resp BlockPointsResponse
	if err := t.get(ctx, fmt.Sprintf("%s/block?i=%d", pathPrefix, block), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (t *HTTPTransport) post(ctx context.Context, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return fatalf("%s: encoding request: %w", t.base, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+path, bytes.NewReader(buf))
	if err != nil {
		return fatalf("%s: building request: %w", t.base, err)
	}
	req.Header.Set("Content-Type", "application/json")
	return t.do(req, out)
}

func (t *HTTPTransport) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+path, nil)
	if err != nil {
		return fatalf("%s: building request: %w", t.base, err)
	}
	return t.do(req, out)
}

// do executes the request and decodes the response, classifying every
// failure mode: connection errors and 5xx are transient (another attempt or
// replica may succeed), 4xx fatal (every replica would answer the same),
// malformed bodies transient (a truncated or corrupted response is a
// transfer fault, not a protocol mismatch).
func (t *HTTPTransport) do(req *http.Request, out any) error {
	res, err := t.client.Do(req)
	if err != nil {
		if ctxErr := req.Context().Err(); ctxErr != nil {
			// Deadline or cancellation: transient from the attempt's point
			// of view (the envelope distinguishes its own attempt timeout
			// from the parent budget).
			return transientf("%s: %w", t.base, ctxErr)
		}
		return transientf("%s: %w", t.base, err)
	}
	defer func() {
		// net/http reuses a connection only once its response was read to
		// EOF, and the decoder below stops at the end of the JSON value —
		// before the encoder's trailing newline, when that arrives in a
		// read of its own.
		_, _ = io.Copy(io.Discard, res.Body)
		res.Body.Close()
	}()
	if res.StatusCode != http.StatusOK {
		var we wireError
		msg := ""
		if b, rerr := io.ReadAll(io.LimitReader(res.Body, 4096)); rerr == nil {
			if json.Unmarshal(b, &we) == nil && we.Error != "" {
				msg = ": " + we.Error
			}
		}
		if res.StatusCode >= 500 || res.StatusCode == http.StatusTooManyRequests {
			return transientf("%s: shard status %d%s", t.base, res.StatusCode, msg)
		}
		return fatalf("%s: shard status %d%s", t.base, res.StatusCode, msg)
	}
	if err := json.NewDecoder(res.Body).Decode(out); err != nil {
		return transientf("%s: malformed response: %w", t.base, err)
	}
	return nil
}

// Loopback is the in-process transport: it calls a ShardServer's logic
// directly, with no sockets or JSON. Single-process layouts use it to run
// the full robustness envelope (and its fault hooks) at zero network cost,
// and the differential oracle uses it as the middle rung between in-process
// execution and real HTTP.
type Loopback struct {
	srv  *ShardServer
	name string
}

// NewLoopback wraps srv as a transport. name is the synthetic endpoint
// (defaults to "loopback://<dataset>/<shard>").
func NewLoopback(srv *ShardServer, name string) *Loopback {
	if name == "" {
		name = fmt.Sprintf("loopback://%s/%d", srv.cfg.Name, srv.cfg.Shard)
	}
	return &Loopback{srv: srv, name: name}
}

// Endpoint implements ShardTransport.
func (l *Loopback) Endpoint() string { return l.name }

// Probe implements ShardTransport. Cancellation unwinds from the searcher's
// checkpoints are recovered into the context's error, mirroring what the
// HTTP server returns for a dead request context.
func (l *Loopback) Probe(ctx context.Context, op Op, req *ProbeRequest, resp *ProbeResponse) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			c, ok := rec.(*fault.Cancel)
			if !ok {
				panic(rec)
			}
			err = transientf("%s: %w", l.name, c.Err)
		}
	}()
	out, err := l.srv.probe(ctx, op, req)
	if err != nil {
		if ctx.Err() != nil {
			return transientf("%s: %w", l.name, err)
		}
		return fatalf("%s: %w", l.name, err)
	}
	*resp = *out
	return nil
}

// Info implements ShardTransport.
func (l *Loopback) Info(context.Context) (*Info, error) {
	info := l.srv.info()
	return &info, nil
}

// Blocks implements ShardTransport.
func (l *Loopback) Blocks(context.Context) ([]BlockHeader, error) {
	return l.srv.blockHeaders(), nil
}

// BlockPoints implements ShardTransport.
func (l *Loopback) BlockPoints(_ context.Context, block int) (*BlockPointsResponse, error) {
	resp, err := l.srv.blockPoints(block)
	if err != nil {
		return nil, fatalf("%s: %w", l.name, err)
	}
	return resp, nil
}
