package remote

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// ErrUnavailable reports that a shard's whole replica set failed to answer
// within the robustness envelope (every replica down, shedding, or past its
// deadline). The public layer re-exports it; the HTTP server maps it to 503.
var ErrUnavailable = errors.New("remote: shard unavailable")

// Options tunes the robustness envelope around every remote call. The zero
// value means defaults; use the No* sentinels to disable a mechanism.
type Options struct {
	// ProbeTimeout caps each individual attempt (not the whole call); the
	// caller's context bounds the call overall. Default 2s.
	ProbeTimeout time.Duration

	// MaxRetries is the number of extra attempts against one endpoint after
	// a transient failure. Default 2; NoRetries disables retrying.
	MaxRetries int

	// RetryBackoff is the first retry's backoff; it doubles per retry and
	// each sleep is jittered ±50%. Default 5ms.
	RetryBackoff time.Duration

	// HedgeAfter is the floor of the hedging delay: if an attempt has not
	// answered after max(HedgeAfter, hedgeQuantile of the endpoint's recent
	// success latencies), a second request is sent to the next healthy
	// replica and the first answer wins. Default 50ms; NoHedging disables
	// hedging.
	HedgeAfter time.Duration

	// BreakerThreshold is the consecutive-transient-failure count that
	// trips an endpoint's circuit breaker. Default 3; NoBreaker disables
	// breakers (every endpoint is always tried).
	BreakerThreshold int

	// BreakerCooldown is how long a tripped breaker stays open before
	// admitting a probe-through attempt. Default 1s.
	BreakerCooldown time.Duration
}

// Sentinels disabling individual mechanisms (a zero field means default).
const (
	NoRetries = -1
	NoHedging = time.Duration(-1)
	NoBreaker = -1
)

// withDefaults resolves zero fields to defaults.
func (o Options) withDefaults() Options {
	if o.ProbeTimeout == 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 5 * time.Millisecond
	}
	if o.HedgeAfter == 0 {
		o.HedgeAfter = 50 * time.Millisecond
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 3
	} else if o.BreakerThreshold < 0 {
		o.BreakerThreshold = 0
	}
	if o.BreakerCooldown == 0 {
		o.BreakerCooldown = time.Second
	}
	return o
}

// endpoint is one replica of one shard: its transport plus the envelope's
// per-endpoint state (breaker, latency window, counters).
type endpoint struct {
	t   ShardTransport
	brk *breaker
	lat latencyRing

	attempts     atomic.Int64
	successes    atomic.Int64
	failures     atomic.Int64
	retries      atomic.Int64
	hedges       atomic.Int64 // hedged second requests launched while this endpoint was primary
	hedgeWins    atomic.Int64 // hedged requests to this endpoint that answered first
	breakerSkips atomic.Int64 // times failover skipped this endpoint on an open breaker
}

// hedgeQuantile is the success-latency quantile that can stretch the hedging
// delay past HedgeAfter, so a normally-slow endpoint is not hedged on every
// call.
const hedgeQuantile = 0.9

// hedgeDelay is when to launch a hedge while waiting on this endpoint.
func (e *endpoint) hedgeDelay(o Options) time.Duration {
	if q := e.lat.quantile(hedgeQuantile); q > o.HedgeAfter {
		return q
	}
	return o.HedgeAfter
}

// latencyRing keeps the last 64 success latencies for the hedging quantile.
type latencyRing struct {
	mu  sync.Mutex
	buf [64]time.Duration
	n   int // filled entries
	idx int // next write position
}

func (l *latencyRing) record(d time.Duration) {
	l.mu.Lock()
	l.buf[l.idx] = d
	l.idx = (l.idx + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// quantile returns the q-quantile of the window, or 0 while the window has
// fewer than 8 samples (too little signal; the HedgeAfter floor governs).
func (l *latencyRing) quantile(q float64) time.Duration {
	l.mu.Lock()
	n := l.n
	tmp := make([]time.Duration, n)
	copy(tmp, l.buf[:n])
	l.mu.Unlock()
	if n < 8 {
		return 0
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	i := int(q * float64(n-1))
	return tmp[i]
}

// ReplicaSet is one shard's replicas under the robustness envelope: every
// remote call runs with per-attempt deadlines, bounded jittered-backoff
// retries, hedged second requests, and breaker-aware failover across the
// replicas, in replica order.
type ReplicaSet struct {
	shard int
	eps   []*endpoint
	opts  Options

	failovers   atomic.Int64 // moves to the next replica after one failed
	exhausted   atomic.Int64 // calls that failed the entire set
	forcedTries atomic.Int64 // last-resort attempts with every breaker open

	mu  sync.Mutex
	rng *rand.Rand // backoff jitter; seeded per shard, deterministic
}

// NewReplicaSet builds the envelope for one shard over its replica
// transports (tried in order; put the preferred replica first).
func NewReplicaSet(shard int, transports []ShardTransport, opts Options) *ReplicaSet {
	opts = opts.withDefaults()
	rs := &ReplicaSet{
		shard: shard,
		opts:  opts,
		rng:   rand.New(rand.NewSource(0x5EED + int64(shard))),
	}
	for _, t := range transports {
		rs.eps = append(rs.eps, &endpoint{
			t:   t,
			brk: newBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		})
	}
	return rs
}

// Shard returns the replica set's shard index.
func (rs *ReplicaSet) Shard() int { return rs.shard }

// callFn is one transport call; it must build (and validate) its own result
// so hedged attempts never share a response object.
type callFn func(ctx context.Context, t ShardTransport) (any, error)

// do runs call under the full envelope. The error is either fatal from the
// first endpoint that answered one, or wraps ErrUnavailable when the whole
// set is exhausted.
func (rs *ReplicaSet) do(ctx context.Context, call callFn) (any, error) {
	order := rs.order()
	var lastErr error
	attempted := false
	for i, ep := range order {
		if rs.opts.BreakerThreshold > 0 && !ep.brk.allow() {
			ep.breakerSkips.Add(1)
			continue
		}
		if attempted {
			rs.failovers.Add(1)
		}
		attempted = true
		var hedge *endpoint
		for _, h := range order[i+1:] {
			if !h.brk.cooling() {
				hedge = h
				break
			}
		}
		v, err := rs.withRetries(ctx, ep, hedge, call)
		if err == nil {
			return v, nil
		}
		lastErr = err
		if !isTransient(err) {
			return nil, err
		}
		if ctx.Err() != nil {
			break
		}
	}
	if !attempted && ctx.Err() == nil && len(order) > 0 {
		// Every breaker is open and cooling: graceful degradation must not
		// wedge on a fully-tripped set, so force one last-resort engagement
		// of the first replica (its outcome feeds the breaker normally).
		rs.forcedTries.Add(1)
		v, err := rs.withRetries(ctx, order[0], nil, call)
		if err == nil {
			return v, nil
		}
		lastErr = err
		if !isTransient(err) {
			return nil, err
		}
	}
	rs.exhausted.Add(1)
	if lastErr == nil {
		lastErr = errors.New("no replicas configured")
	}
	return nil, fmt.Errorf("%w: shard %d: %v", ErrUnavailable, rs.shard, lastErr)
}

// order returns the endpoints with open-and-cooling breakers moved to the
// back (preserving replica order within each class), so failover prefers
// healthy replicas but a fully-tripped set still has a deterministic order.
func (rs *ReplicaSet) order() []*endpoint {
	out := make([]*endpoint, 0, len(rs.eps))
	var cooling []*endpoint
	for _, ep := range rs.eps {
		if rs.opts.BreakerThreshold > 0 && ep.brk.cooling() {
			cooling = append(cooling, ep)
			continue
		}
		out = append(out, ep)
	}
	return append(out, cooling...)
}

// withRetries engages one endpoint: up to 1+MaxRetries hedged attempts with
// jittered exponential backoff between them. Only transient failures are
// retried, and never past the caller's context.
func (rs *ReplicaSet) withRetries(ctx context.Context, ep, hedge *endpoint, call callFn) (any, error) {
	backoff := rs.opts.RetryBackoff
	var lastErr error
	for try := 0; try <= rs.opts.MaxRetries; try++ {
		if try > 0 {
			ep.retries.Add(1)
			if !sleepCtx(ctx, rs.jitter(backoff)) {
				return nil, lastErr
			}
			backoff *= 2
		}
		v, err := rs.hedged(ctx, ep, hedge, call)
		if err == nil {
			return v, nil
		}
		lastErr = err
		if !isTransient(err) || ctx.Err() != nil {
			return nil, lastErr
		}
	}
	return nil, lastErr
}

// hedged runs one attempt against ep, launching a second request to hedge
// if ep has not answered after its hedging delay; the first success wins
// and the loser's context is canceled. A panic inside an attempt's
// goroutine crosses back as a value and unwinds the caller instead of the
// process.
func (rs *ReplicaSet) hedged(ctx context.Context, ep, hedge *endpoint, call callFn) (any, error) {
	if hedge == nil || rs.opts.HedgeAfter < 0 {
		return rs.once(ctx, ep, call)
	}
	type outcome struct {
		v     any
		err   error
		ep    *endpoint
		fault any // a panic inside the attempt, re-raised on the caller
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, 2)
	launch := func(e *endpoint) {
		go func() {
			defer func() {
				if r := recover(); r != nil {
					ch <- outcome{fault: fault.WrapPanic(r)}
				}
			}()
			v, err := rs.once(actx, e, call)
			ch <- outcome{v: v, err: err, ep: e}
		}()
	}
	launch(ep)
	inflight := 1
	hedged := false
	timer := time.NewTimer(ep.hedgeDelay(rs.opts))
	defer timer.Stop()
	var lastErr error
	for inflight > 0 {
		select {
		case out := <-ch:
			inflight--
			if out.fault != nil {
				panic(out.fault)
			}
			if out.err == nil {
				if hedged && out.ep == hedge {
					hedge.hedgeWins.Add(1)
				}
				return out.v, nil
			}
			lastErr = out.err
			if inflight == 0 && !hedged {
				return nil, lastErr
			}
		case <-timer.C:
			if !hedged && hedge.brk.allow() {
				hedged = true
				ep.hedges.Add(1)
				launch(hedge)
				inflight++
			}
		}
	}
	return nil, lastErr
}

// once is a single attempt: per-attempt deadline, fault-injection hooks,
// latency recording, breaker and counter bookkeeping.
func (rs *ReplicaSet) once(ctx context.Context, ep *endpoint, call callFn) (any, error) {
	ep.attempts.Add(1)
	actx := ctx
	if rs.opts.ProbeTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, rs.opts.ProbeTimeout)
		defer cancel()
	}
	name := ep.t.Endpoint()
	var v any
	var err error
	if fault.Armed() {
		if d := fault.OnDelayProbe(name); d > 0 && !sleepCtx(actx, d) {
			err = transientf("%s: injected delay: %w", name, actx.Err())
		}
		if err == nil && fault.OnDropProbe(name) {
			err = transientf("%s: injected probe drop", name)
		}
	}
	start := time.Now()
	if err == nil {
		v, err = call(actx, ep.t)
	}
	if err == nil && fault.Armed() && fault.OnResetConn(name) {
		err = transientf("%s: injected connection reset", name)
	}
	if err == nil {
		ep.lat.record(time.Since(start))
		ep.successes.Add(1)
		ep.brk.onSuccess()
		return v, nil
	}
	ep.failures.Add(1)
	if ctx.Err() == nil {
		if isTransient(err) {
			// Transient failures (including attempt timeouts) count toward
			// tripping the breaker; fatal ones mean the endpoint answered,
			// so they reset its consecutive-failure streak instead.
			ep.brk.onFailure()
		} else {
			ep.brk.onSuccess()
		}
	}
	return nil, err
}

// jitter spreads d by ±50%.
func (rs *ReplicaSet) jitter(d time.Duration) time.Duration {
	rs.mu.Lock()
	f := 0.5 + rs.rng.Float64()
	rs.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// sleepCtx sleeps for d unless ctx ends first; it reports whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Probe runs one probe request — a focal group — under the envelope,
// corrupting (under the fault injector) and validating the decoded response
// inside the attempt so that corruption surfaces as a retriable transient
// error. One attempt is one request, whatever the group's size.
func (rs *ReplicaSet) Probe(ctx context.Context, op Op, req *ProbeRequest) (*ProbeResponse, error) {
	v, err := rs.do(ctx, func(ctx context.Context, t ShardTransport) (any, error) {
		resp := new(ProbeResponse)
		if err := t.Probe(ctx, op, req, resp); err != nil {
			return nil, err
		}
		if fault.Armed() && fault.OnCorruptResponse(t.Endpoint()) {
			corruptProbe(resp)
		}
		if err := resp.validate(op, req.focals(), req.K); err != nil {
			return nil, transientf("%s: corrupt response: %w", t.Endpoint(), err)
		}
		return resp, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*ProbeResponse), nil
}

// Info fetches the shard's identity card under the envelope.
func (rs *ReplicaSet) Info(ctx context.Context) (*Info, error) {
	v, err := rs.do(ctx, func(ctx context.Context, t ShardTransport) (any, error) {
		return t.Info(ctx)
	})
	if err != nil {
		return nil, err
	}
	return v.(*Info), nil
}

// Blocks fetches the outer-side block headers under the envelope.
func (rs *ReplicaSet) Blocks(ctx context.Context) ([]BlockHeader, error) {
	v, err := rs.do(ctx, func(ctx context.Context, t ShardTransport) (any, error) {
		return t.Blocks(ctx)
	})
	if err != nil {
		return nil, err
	}
	return v.([]BlockHeader), nil
}

// BlockPoints fetches one block's points under the envelope, with the same
// corrupt-and-validate step as Probe.
func (rs *ReplicaSet) BlockPoints(ctx context.Context, block int) (*BlockPointsResponse, error) {
	v, err := rs.do(ctx, func(ctx context.Context, t ShardTransport) (any, error) {
		resp, err := t.BlockPoints(ctx, block)
		if err != nil {
			return nil, err
		}
		if fault.Armed() && fault.OnCorruptResponse(t.Endpoint()) {
			resp.Xs = resp.Xs[:len(resp.Xs)/2]
		}
		if err := resp.validate(); err != nil {
			return nil, transientf("%s: corrupt response: %w", t.Endpoint(), err)
		}
		return resp, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*BlockPointsResponse), nil
}

// corruptProbe injects a structural defect the response validator catches,
// whatever the response's shape: a truncated coordinate column, a group
// whose last span is cut off, or a negative count.
func corruptProbe(r *ProbeResponse) {
	switch {
	case len(r.Xs) > 0:
		r.Xs = r.Xs[:len(r.Xs)-1]
	case len(r.Offs) > 0:
		r.Offs = r.Offs[:len(r.Offs)-1]
	default:
		r.Count = -1
	}
}

// EndpointStats is one replica's envelope counters for metrics (public as
// twoknn.RemoteEndpointStats).
type EndpointStats struct {
	// Endpoint is the replica's base URL (or the loopback transport's
	// synthetic name).
	Endpoint string `json:"endpoint"`

	// Breaker is the circuit breaker's current state: "closed", "open" or
	// "half-open".
	Breaker string `json:"breaker"`

	// Attempts/Successes/Failures count individual probe attempts.
	Attempts  int64 `json:"attempts"`
	Successes int64 `json:"successes"`
	Failures  int64 `json:"failures"`

	// Retries counts backoff re-attempts after transient failures.
	Retries int64 `json:"retries"`

	// Hedges counts hedged second requests launched while this endpoint
	// was primary; HedgeWins counts hedges to this endpoint that answered
	// first.
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`

	// BreakerTrips counts closed→open transitions; BreakerSkips counts
	// failover decisions that skipped this endpoint on an open breaker.
	BreakerTrips int64 `json:"breaker_trips"`
	BreakerSkips int64 `json:"breaker_skips"`
}

// ShardNetStats is one shard's envelope counters for metrics.
type ShardNetStats struct {
	Shard       int             `json:"shard"`
	Failovers   int64           `json:"failovers"`
	Exhausted   int64           `json:"exhausted"`
	ForcedTries int64           `json:"forced_tries"`
	Endpoints   []EndpointStats `json:"endpoints"`
}

// NetStats snapshots the replica set's envelope counters.
func (rs *ReplicaSet) NetStats() ShardNetStats {
	out := ShardNetStats{
		Shard:       rs.shard,
		Failovers:   rs.failovers.Load(),
		Exhausted:   rs.exhausted.Load(),
		ForcedTries: rs.forcedTries.Load(),
	}
	for _, ep := range rs.eps {
		state, trips := ep.brk.snapshot()
		out.Endpoints = append(out.Endpoints, EndpointStats{
			Endpoint:     ep.t.Endpoint(),
			Breaker:      state.String(),
			Attempts:     ep.attempts.Load(),
			Successes:    ep.successes.Load(),
			Failures:     ep.failures.Load(),
			Retries:      ep.retries.Load(),
			Hedges:       ep.hedges.Load(),
			HedgeWins:    ep.hedgeWins.Load(),
			BreakerTrips: trips,
			BreakerSkips: ep.breakerSkips.Load(),
		})
	}
	return out
}
