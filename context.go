package twoknn

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/remote"
)

// This file is the package's robustness layer: context-aware cancellation
// for every query entry point, typed errors for the three ways a query can
// fail mid-flight, and the recover boundary that keeps worker panics from
// crashing the caller.
//
// Cancellation is cooperative and block-granular. A context supplied via
// WithContext is bound to the query's borrowed searcher handles; the
// selection scans, join loops and sharded probes poll it once per index
// block span (never per point — the batched distance kernels underneath run
// to completion on their ≤ BatchGrain span), so a cancelled query stops
// within one block scan at zero steady-state allocation cost. Internally the
// poll unwinds as a panic carrying the context's error, which the entry
// point's recover boundary converts into an error wrapping both
// ErrQueryCanceled and the context cause; no partial results escape, all
// pooled handles are released, and operation counters recorded before the
// abort are still folded into WithStats targets.

// ErrQueryCanceled is the typed error every query entry point returns when
// its WithContext context is cancelled or its deadline expires mid-query.
// Returned errors wrap it together with the context's own error, so all of
//
//	errors.Is(err, twoknn.ErrQueryCanceled)
//	errors.Is(err, context.Canceled)        // or context.DeadlineExceeded
//
// hold as appropriate. Test with errors.Is.
var ErrQueryCanceled = errors.New("twoknn: query canceled")

// ErrSearchersExhausted is the typed error for shed load on a relation
// bounded with WithMaxSearchers: every handle is out and the caller chose
// not to wait (or waited until its context expired). Test with errors.Is.
//
// The shed-load contract of WithMaxSearchers: a bounded relation admits at
// most n concurrent queries' worth of searcher scratch. Beyond the bound,
//   - plain entry points (no WithContext) block until a handle frees up;
//   - entry points with WithContext wait only until the context's deadline,
//     then fail with an error wrapping ErrQueryCanceled, this sentinel, and
//     the context's error — the caller-visible form of load shedding;
//   - WithConcurrency's extra fan-out workers never wait at all: they stand
//     down and the query completes on fewer workers.
var ErrSearchersExhausted = core.ErrSearchersExhausted

// ErrQueryPanic is the typed sentinel wrapped by every QueryPanicError.
// Test with errors.Is; recover the payload and stack with errors.As on
// *QueryPanicError.
var ErrQueryPanic = errors.New("twoknn: panic during query execution")

// QueryPanicError is returned when a query worker goroutine panics. The
// panic never crosses the worker's goroutine boundary: the driver recovers
// it, stops the remaining crew, releases every borrowed searcher handle,
// folds the operation counters recorded before the fault, and surfaces the
// panic as this error on the calling goroutine. It wraps ErrQueryPanic.
type QueryPanicError struct {
	// Value is the recovered panic value.
	Value any

	// Stack is the panicking goroutine's stack trace, captured at the
	// recovery point inside the worker.
	Stack []byte
}

// Error implements error.
func (e *QueryPanicError) Error() string {
	return fmt.Sprintf("%v: %v", ErrQueryPanic, e.Value)
}

// Unwrap makes errors.Is(err, ErrQueryPanic) hold.
func (e *QueryPanicError) Unwrap() error { return ErrQueryPanic }

// WithContext bounds the query by ctx: cancellation or deadline expiry
// stops the evaluation within one index-block scan, returning an error that
// wraps ErrQueryCanceled and ctx's error, with no partial results and all
// borrowed searcher handles returned to their pools.
//
// The context is polled at block granularity — once per block span in the
// selection scans, join loops and sharded shard probes — never per point,
// so the batched distance kernels and the zero-allocation property of the
// hot paths are unaffected. On a relation bounded with WithMaxSearchers the
// context also bounds the wait for a free searcher handle (see
// ErrSearchersExhausted for the shed-load contract).
//
// Every query entry point honors the option. A nil ctx is ignored.
func WithContext(ctx context.Context) QueryOption {
	return func(c *queryConfig) { c.ctx = ctx }
}

// runQuery is the recover boundary between the engine's panic-based fault
// unwinding and the public error-returning API. It fails fast on an
// already-expired context, then runs fn, converting a cooperative
// cancellation unwind (fault.Cancel) into an ErrQueryCanceled chain, an
// evaluation failure (fault.Fail — e.g. an exhausted remote replica set)
// into its typed error verbatim, and any other panic into a
// *QueryPanicError — an isolated worker panic (fault.Panic) keeps the
// stack captured at its origin goroutine, a panic on the calling goroutine
// captures the stack here, where the unwound frames are still live below
// the recovering defer.
//
// Under WithPartialResults it also wires the degradation channel: a
// remote.Collector rides the query context into the remote probers, and a
// clean return with recorded shard failures comes back as the (exact over
// the reachable shards) result plus a *PartialResultError.
func runQuery[T any](cfg *queryConfig, fn func() (T, error)) (out T, err error) {
	var coll *remote.Collector
	if cfg.partial {
		coll = remote.NewCollector()
		ctx := cfg.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		cfg.ctx = remote.WithCollector(ctx, coll)
	}
	defer func() {
		if r := recover(); r != nil {
			var zero T
			switch f := r.(type) {
			case *fault.Cancel:
				out, err = zero, cancelErr(f.Err)
			case *fault.Fail:
				out, err = zero, f.Err
			case *fault.Panic:
				out, err = zero, &QueryPanicError{Value: f.Value, Stack: f.Stack}
			default:
				out, err = zero, &QueryPanicError{Value: r, Stack: debug.Stack()}
			}
		}
	}()
	if cfg.ctx != nil {
		if e := cfg.ctx.Err(); e != nil {
			var zero T
			return zero, cancelErr(e)
		}
	}
	out, err = fn()
	if err == nil && coll != nil {
		if missing := coll.Missing(); len(missing) > 0 {
			err = &PartialResultError{Missing: missing, Errs: coll.Errors()}
		}
	}
	return out, err
}

// cancelErr wraps a cancellation cause into the public error chain:
// ErrQueryCanceled always, plus the cause itself (which carries
// context.Canceled / context.DeadlineExceeded, and ErrSearchersExhausted
// when a bounded pool's wait was cut short).
func cancelErr(cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return fmt.Errorf("%w: %w", ErrQueryCanceled, cause)
}
