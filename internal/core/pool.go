package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/fault"
)

// This file implements the concurrency layer that makes one Relation —
// hence one shared spatial index — servable to many goroutines at once.
//
// The query algorithms are written against a Relation whose Searcher owns
// mutable scratch (iterator pools, the selection heap, a single reusable
// Neighborhood buffer), so a Relation value must never be probed by two
// goroutines at the same time. Instead of locking the searcher (which would
// serialize every neighborhood computation), each top-level query borrows a
// *handle* — a query-local Relation view over the same immutable index with
// a private Searcher — from the relation's SearcherPool, and returns it when
// the query finishes.
//
// The pool is one free list: a buffered channel of idle handles. Idle
// handles stay in it across garbage collections, so a query in steady state
// allocates nothing for its searcher machinery, before or after a GC. An
// unbounded pool keeps up to GOMAXPROCS idle handles, mints one when the
// list is empty and drops one when it is full. A bounded pool's channel has
// capacity maxHandles and starts full of nil slots, each standing for a
// handle not minted yet: receiving from it is taking the permit and the
// handle at once, so at most maxHandles searcher states ever exist and
// Acquire blocks (TryAcquire errors) while all of them are out. Either way
// the resident scratch is explicit — the tradeoff framing of Esmailpour,
// Hu & Sintos ("Space-Time Tradeoffs for Spatial Conjunctive Queries",
// 2025).

// ErrSearchersExhausted is returned by TryAcquire on a bounded pool whose
// handles are all in use.
var ErrSearchersExhausted = errors.New("core: bounded searcher pool exhausted")

// SearcherPool hands out per-goroutine query handles over one shared root
// Relation. A handle is itself a *Relation (same index, private searcher),
// so the core algorithms run on it unchanged.
type SearcherPool struct {
	root *Relation

	// idle is the free list; a nil entry is a bounded pool's unminted slot.
	idle  chan *Relation
	bound int // capacity of a bounded pool; 0 when unbounded

	// outstanding counts handles currently out of the pool — the leak
	// detector the cancellation and chaos tests assert returns to zero
	// after every aborted query.
	outstanding atomic.Int64
}

// newSearcherPool builds the pool for root. maxHandles <= 0 means unbounded
// (up to GOMAXPROCS idle handles kept); maxHandles > 0 caps the number of
// simultaneously outstanding handles — and therefore the number of searcher
// scratch states that can ever exist at once.
func newSearcherPool(root *Relation, maxHandles int) *SearcherPool {
	if maxHandles <= 0 {
		return &SearcherPool{root: root, idle: make(chan *Relation, runtime.GOMAXPROCS(0))}
	}
	p := &SearcherPool{root: root, idle: make(chan *Relation, maxHandles), bound: maxHandles}
	for range maxHandles {
		p.idle <- nil
	}
	return p
}

// Bound returns the maximum number of outstanding handles, or 0 for an
// unbounded pool.
func (p *SearcherPool) Bound() int { return p.bound }

// take receives an idle handle (nil: mint one) from the free list. An empty
// unbounded list yields nil at once; an empty bounded list waits, parked on
// the channel, until a handle comes back (ok) or done closes (!ok). A nil
// done never closes.
func (p *SearcherPool) take(done <-chan struct{}) (h *Relation, ok bool) {
	select {
	case h = <-p.idle:
		return h, true
	default:
	}
	if p.bound == 0 {
		return nil, true
	}
	select {
	case h = <-p.idle:
		return h, true
	case <-done:
		return nil, false
	}
}

// lease checks h — minting it when nil — out of the pool.
func (p *SearcherPool) lease(h *Relation) *Relation {
	if h == nil {
		h = &Relation{Ix: p.root.Ix, ixs: p.root.ixs, S: p.root.S.Clone(), store: p.root.store, pool: p}
	}
	h.leased.Store(true)
	p.outstanding.Add(1)
	return h
}

// Outstanding returns the number of handles currently out of the pool. It
// is a point-in-time snapshot meant for introspection (leak assertions,
// load metrics); a concurrent Acquire or Release may change it immediately.
func (p *SearcherPool) Outstanding() int {
	return int(p.outstanding.Load())
}

// release returns a handle to the free list. The handle's scratch buffers
// are kept warm for the next Acquire; its previous query results (the
// reusable Neighborhood) are dead the moment it is back in the pool. A
// bounded list always has room for it (its slot left with the lease); a
// full unbounded list leaves the handle to the collector.
func (p *SearcherPool) release(h *Relation) {
	p.outstanding.Add(-1)
	select {
	case p.idle <- h:
	default:
	}
}

// Pool returns the relation's searcher pool. Handles share the root's pool,
// so Pool can be called on a root relation or on a handle alike.
func (r *Relation) Pool() *SearcherPool { return r.pool }

// Acquire borrows a query handle for this relation: a Relation view over
// the same index with a private searcher, safe to use from the calling
// goroutine until Release. It blocks while a bounded pool is exhausted; the
// handle must be returned with Release exactly once.
func (r *Relation) Acquire() *Relation {
	h, _ := r.pool.take(nil)
	return r.pool.lease(h)
}

// AcquireCtx is the deadline-aware acquire: on a bounded pool whose handles
// are all out it waits — parked on the free list, not spinning — until a
// handle frees up or ctx expires, whichever comes first. On expiry the error
// wraps both ErrSearchersExhausted (the pool was the bottleneck) and ctx's
// error (why waiting stopped), so callers can errors.Is either cause. A nil
// ctx is Acquire; a ctx that is already done fails fast without taking a
// handle.
//
// The returned handle is bound to ctx: every query it runs checkpoints
// against ctx per block span. Release detaches the binding before the handle
// is recycled. TryAcquire remains the shed-load fast path — it never waits;
// AcquireCtx is the admission-control path that waits exactly as long as the
// caller's deadline allows.
func (r *Relation) AcquireCtx(ctx context.Context) (*Relation, error) {
	if ctx == nil {
		return r.Acquire(), nil
	}
	if fault.Armed() {
		fault.OnPoolAcquire()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h, ok := r.pool.take(ctx.Done())
	if !ok {
		return nil, fmt.Errorf("%w: %w", ErrSearchersExhausted, ctx.Err())
	}
	h = r.pool.lease(h)
	h.S.Bind(ctx)
	return h, nil
}

// TryAcquire is Acquire without blocking: on a bounded pool whose handles
// are all out it returns ErrSearchersExhausted immediately.
func (r *Relation) TryAcquire() (*Relation, error) {
	select {
	case h := <-r.pool.idle:
		return r.pool.lease(h), nil
	default:
	}
	if r.pool.bound > 0 {
		return nil, ErrSearchersExhausted
	}
	return r.pool.lease(nil), nil
}

// Release returns a handle obtained from Acquire/TryAcquire to its pool;
// the handle must not be used afterwards. Release no-ops (via an atomic
// compare-and-swap on the lease flag) on anything not currently leased —
// a root relation, a Clone, or an already-released handle — so a stray
// Release cannot inflate a bounded pool's capacity or double-insert a
// handle into the free list. The one misuse it cannot detect is releasing
// a handle that was already released AND re-acquired by another goroutine:
// that is a use-after-free of the handle, on the caller, like any other
// use of a released handle.
func (h *Relation) Release() {
	if !h.leased.CompareAndSwap(true, false) {
		return
	}
	// Detach any cancellation binding while the handle is still exclusively
	// ours (before the free list makes it visible to the next borrower): a
	// stale context must never cancel a later query.
	h.S.Bind(nil)
	h.pool.release(h)
}

// Clone returns an independent long-lived view over the same immutable
// index with a private searcher, sharing the root's pool. The private
// searcher matters to callers that probe S directly (the core-level usage
// pattern); callers going through Acquire/Release borrow pooled handles
// either way.
func (r *Relation) Clone() *Relation {
	return &Relation{Ix: r.Ix, ixs: r.ixs, S: r.S.Clone(), store: r.store, pool: r.pool}
}
