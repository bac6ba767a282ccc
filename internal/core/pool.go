package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
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
// the query finishes. Handles are recycled through a sync.Pool, so a query
// in steady state allocates nothing for its searcher machinery.
//
// The bounded variant trades the sync.Pool's elasticity for a hard memory
// ceiling: at most maxHandles searcher states ever exist, and Acquire blocks
// (TryAcquire errors) while all of them are out. This makes the space cost
// of concurrency explicit — the tradeoff framing of Esmailpour, Hu & Sintos
// ("Space-Time Tradeoffs for Spatial Conjunctive Queries", 2025).

// ErrSearchersExhausted is returned by TryAcquire on a bounded pool whose
// handles are all in use.
var ErrSearchersExhausted = errors.New("core: bounded searcher pool exhausted")

// SearcherPool hands out per-goroutine query handles over one shared root
// Relation. A handle is itself a *Relation (same index, private searcher),
// so the core algorithms run on it unchanged.
type SearcherPool struct {
	root    *Relation
	handles sync.Pool     // recycled *Relation views
	tokens  chan struct{} // capacity permits; nil for unbounded pools

	// outstanding counts handles currently out of the pool — the leak
	// detector the cancellation and chaos tests assert returns to zero
	// after every aborted query.
	outstanding atomic.Int64
}

// newSearcherPool builds the pool for root. maxHandles <= 0 means unbounded
// (sync.Pool only); maxHandles > 0 caps the number of simultaneously
// outstanding handles — and therefore the number of searcher scratch states
// that can ever exist at once.
func newSearcherPool(root *Relation, maxHandles int) *SearcherPool {
	p := &SearcherPool{root: root}
	p.handles.New = func() any { return p.newHandle() }
	if maxHandles > 0 {
		p.tokens = make(chan struct{}, maxHandles)
		for i := 0; i < maxHandles; i++ {
			p.tokens <- struct{}{}
		}
	}
	return p
}

// newHandle mints a fresh view: same index and store, private searcher,
// same pool.
func (p *SearcherPool) newHandle() *Relation {
	return &Relation{Ix: p.root.Ix, S: p.root.S.Clone(), store: p.root.store, pool: p}
}

// Bound returns the maximum number of outstanding handles, or 0 for an
// unbounded pool.
func (p *SearcherPool) Bound() int {
	if p.tokens == nil {
		return 0
	}
	return cap(p.tokens)
}

// Acquire returns a query handle, blocking while a bounded pool is
// exhausted. The handle must be returned with Release exactly once.
func (p *SearcherPool) Acquire() *Relation {
	if p.tokens != nil {
		<-p.tokens
	}
	return p.lease()
}

// AcquireCtx is the deadline-aware bounded acquire: on a bounded pool whose
// handles are all out it waits — parked on the token channel, not spinning —
// until a handle frees up or ctx expires, whichever comes first. On expiry
// the error wraps both ErrSearchersExhausted (the pool was the bottleneck)
// and ctx's error (why waiting stopped), so callers can errors.Is either
// cause. A nil ctx is Acquire; a ctx that is already done fails fast without
// consuming a token.
//
// The returned handle is bound to ctx: every query it runs checkpoints
// against ctx per block span. Release detaches the binding before the handle
// is recycled. TryAcquire remains the shed-load fast path — it never waits;
// AcquireCtx is the admission-control path that waits exactly as long as the
// caller's deadline allows.
func (p *SearcherPool) AcquireCtx(ctx context.Context) (*Relation, error) {
	if ctx == nil {
		return p.Acquire(), nil
	}
	if fault.Armed() {
		fault.OnPoolAcquire()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.tokens != nil {
		select {
		case <-p.tokens:
		default:
			select {
			case <-p.tokens:
			case <-ctx.Done():
				return nil, fmt.Errorf("%w: %w", ErrSearchersExhausted, ctx.Err())
			}
		}
	}
	h := p.lease()
	h.S.Bind(ctx)
	return h, nil
}

// TryAcquire is Acquire without blocking: on a bounded pool whose handles
// are all out it returns ErrSearchersExhausted immediately.
func (p *SearcherPool) TryAcquire() (*Relation, error) {
	if p.tokens != nil {
		select {
		case <-p.tokens:
		default:
			return nil, ErrSearchersExhausted
		}
	}
	return p.lease(), nil
}

// lease checks a recycled (or fresh) handle out of the pool; the caller has
// already obtained a token where the pool is bounded.
func (p *SearcherPool) lease() *Relation {
	h := p.handles.Get().(*Relation)
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

// release returns a handle to the pool. The handle's scratch buffers are
// kept warm for the next Acquire; its previous query results (the reusable
// Neighborhood) are dead the moment it is back in the pool.
func (p *SearcherPool) release(h *Relation) {
	p.outstanding.Add(-1)
	p.handles.Put(h)
	if p.tokens != nil {
		p.tokens <- struct{}{}
	}
}

// Pool returns the relation's searcher pool. Handles share the root's pool,
// so Pool can be called on a root relation or on a handle alike.
func (r *Relation) Pool() *SearcherPool { return r.pool }

// Acquire borrows a query handle for this relation: a Relation view over
// the same index with a private searcher, safe to use from the calling
// goroutine until Release. On a relation without a pool (a hand-built
// literal) it returns a fresh unpooled view.
func (r *Relation) Acquire() *Relation {
	if r.pool == nil {
		return &Relation{Ix: r.Ix, S: r.S.Clone(), store: r.store}
	}
	return r.pool.Acquire()
}

// AcquireCtx is Acquire with a deadline: the wait for a bounded pool's
// handle ends when ctx expires (see SearcherPool.AcquireCtx), and the
// returned handle checkpoints every query against ctx at block granularity.
// A nil ctx is Acquire.
func (r *Relation) AcquireCtx(ctx context.Context) (*Relation, error) {
	if r.pool == nil {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		h := &Relation{Ix: r.Ix, S: r.S.Clone(), store: r.store}
		h.S.Bind(ctx)
		return h, nil
	}
	return r.pool.AcquireCtx(ctx)
}

// TryAcquire is Acquire without blocking; it fails only on an exhausted
// bounded pool.
func (r *Relation) TryAcquire() (*Relation, error) {
	if r.pool == nil {
		return &Relation{Ix: r.Ix, S: r.S.Clone(), store: r.store}, nil
	}
	return r.pool.TryAcquire()
}

// Release returns a handle obtained from Acquire/TryAcquire to its pool;
// the handle must not be used afterwards. Release no-ops (via an atomic
// compare-and-swap on the lease flag) on anything not currently leased —
// an unpooled view, a Clone, or an already-released handle — so a stray
// Release cannot inflate a bounded pool's capacity or double-insert a
// handle into the free list. The one misuse it cannot detect is releasing
// a handle that was already released AND re-acquired by another goroutine:
// that is a use-after-free of the handle, on the caller, like any other
// use of a released handle.
func (h *Relation) Release() {
	if h.pool == nil || !h.leased.CompareAndSwap(true, false) {
		return
	}
	// Detach any cancellation binding while the handle is still exclusively
	// ours (before Put makes it visible to the next borrower): a stale
	// context must never cancel a later query.
	h.S.Bind(nil)
	h.pool.release(h)
}

// Clone returns an independent long-lived view over the same immutable
// index with a private searcher, sharing the root's pool. The private
// searcher matters to callers that probe S directly (the core-level usage
// pattern); callers going through Acquire/Release borrow pooled handles
// either way.
func (r *Relation) Clone() *Relation {
	return &Relation{Ix: r.Ix, S: r.S.Clone(), store: r.store, pool: r.pool}
}
