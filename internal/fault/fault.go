// Package fault carries the control-flow payloads of cooperative query
// cancellation and a deterministic fault-injection harness for chaos tests.
//
// Cancellation in this engine unwinds by panic: block-granularity
// checkpoints (locality block loops, the join crew's tuple-group and
// scatter workers) panic with a *Cancel payload the moment the bound
// context is done, deferred releases return every pooled handle on the way
// up, and the public entry points recover the payload into a typed error.
// Worker goroutines never let a panic cross their goroutine boundary:
// recovered values are wrapped into *Panic (stack captured at the fault
// site), parked in a Slot, and re-panicked on the caller's goroutine after
// counters are folded and handles are released.
//
// The injection side is intentionally global and atomic: production code
// pays one atomic load (Armed) per checkpoint when nothing is armed, and the
// chaos tests arm process-wide hooks that fire deterministically — the N-th
// checkpoint, a specific shard's probe, a pool acquisition — to place a
// cancellation or a crash at an exact point of a query's execution.
package fault

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Cancel is the panic payload of a cooperative cancellation unwind. Err is
// the cause (a context error, possibly wrapped with pool-exhaustion detail);
// the public API layer recovers the payload and wraps Err into its typed
// cancellation error.
type Cancel struct{ Err error }

// Panic is a worker panic captured at the fault site: the original panic
// value plus the faulting goroutine's stack. The public API layer recovers
// it into a typed error instead of crashing the process.
type Panic struct {
	Value any
	Stack []byte
}

// Fail is the panic payload of a non-cancellation evaluation failure — a
// remote shard whose replica set is exhausted, for example. Unlike *Cancel
// it does not mean "the caller gave up", and unlike *Panic it is not a bug:
// the public API layer recovers the payload and returns Err as the query's
// error verbatim (the fault site is expected to have built a typed,
// wrapped error chain).
type Fail struct{ Err error }

// WrapPanic normalizes a recovered value for cross-goroutine transport:
// engine payloads (*Cancel, *Fail, *Panic) pass through, anything else — a
// real bug or an injected crash — is wrapped into *Panic with the current
// goroutine's stack, so the trace points at the fault, not at the re-panic.
func WrapPanic(r any) any {
	switch r.(type) {
	case *Cancel, *Fail, *Panic:
		return r
	}
	return &Panic{Value: r, Stack: debug.Stack()}
}

// Slot collects the first fault of a worker crew for re-panicking on the
// caller's goroutine. Payloads rank *Panic > *Fail > *Cancel: when one
// worker hits a real crash while another merely observes the (consequent)
// cancellation or a dead shard, the crash must surface rather than be
// masked, and a shard failure outranks the cancellations it caused.
type Slot struct {
	mu  sync.Mutex
	val any
}

// rank orders fault payloads for Slot replacement.
func rank(r any) int {
	switch r.(type) {
	case *Panic:
		return 2
	case *Fail:
		return 1
	default: // *Cancel
		return 0
	}
}

// Store records r (pass values through WrapPanic first). The first fault
// wins among equals; a higher-ranked payload (*Panic > *Fail > *Cancel)
// replaces a lower-ranked one.
func (s *Slot) Store(r any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.val == nil || rank(r) > rank(s.val) {
		s.val = r
	}
}

// Load returns the recorded fault, or nil when the crew finished clean. It
// is called after the crew is joined; the WaitGroup provides the
// happens-before edge.
func (s *Slot) Load() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.val
}

// Injector is a set of deterministic hooks the engine invokes while armed.
// Any hook may be nil. Hooks run on the query's goroutine at well-defined
// points, so they can cancel a context, sleep, or panic to place a fault at
// an exact execution step.
type Injector struct {
	// BlockScan fires at every cancellation checkpoint, with the 1-based
	// count of checkpoints since Arm. Checkpoints are per block span (never
	// per point), so n addresses "the N-th block scanned process-wide".
	BlockScan func(n uint64)

	// ShardProbe fires before a probe consults shard s's searcher.
	ShardProbe func(s int)

	// PoolAcquire fires when a context-aware pool acquisition starts.
	PoolAcquire func()

	// The network fault class, keyed by the remote endpoint an attempt is
	// about to hit (its URL, or the loopback transport's synthetic name).
	// Hooks fire inside the robustness envelope — before retries and
	// failover are decided — so an injected fault exercises the same
	// recovery path a real network fault would.

	// DropProbe reports whether to drop the attempt outright (the request
	// never reaches the shard; surfaces as a transient connection error).
	DropProbe func(endpoint string) bool

	// DelayProbe returns an extra latency to impose on the attempt before
	// it is sent; zero means none. The delay honors the attempt's context,
	// so a deadline can expire mid-delay exactly like a stalled network.
	DelayProbe func(endpoint string) time.Duration

	// ResetConn reports whether to fail the attempt after it was sent
	// (the shard did the work; the response never arrived — surfaces as a
	// transient connection-reset error).
	ResetConn func(endpoint string) bool

	// CorruptResponse reports whether to corrupt the attempt's decoded
	// response (surfaces as a malformed-response transient error via the
	// envelope's validation).
	CorruptResponse func(endpoint string) bool
}

var (
	armed    atomic.Bool
	injector atomic.Pointer[Injector]
	scans    atomic.Uint64
)

// Armed reports whether an injector is installed. It is the one-atomic-load
// fast path production checkpoints take; everything else in this file is
// off that path.
func Armed() bool { return armed.Load() }

// Arm installs inj process-wide and resets the checkpoint counter. Chaos
// tests arm, run one scenario, and Disarm (they cannot run in parallel with
// each other — the harness is deliberately global).
func Arm(inj *Injector) {
	scans.Store(0)
	injector.Store(inj)
	armed.Store(true)
}

// Disarm removes the installed injector.
func Disarm() {
	armed.Store(false)
	injector.Store(nil)
}

// OnBlockScan invokes the BlockScan hook. Call only when Armed.
func OnBlockScan() {
	inj := injector.Load()
	if inj == nil || inj.BlockScan == nil {
		return
	}
	inj.BlockScan(scans.Add(1))
}

// OnShardProbe invokes the ShardProbe hook. Call only when Armed.
func OnShardProbe(s int) {
	inj := injector.Load()
	if inj == nil || inj.ShardProbe == nil {
		return
	}
	inj.ShardProbe(s)
}

// OnPoolAcquire invokes the PoolAcquire hook. Call only when Armed.
func OnPoolAcquire() {
	inj := injector.Load()
	if inj == nil || inj.PoolAcquire == nil {
		return
	}
	inj.PoolAcquire()
}

// OnDropProbe invokes the DropProbe hook. Call only when Armed.
func OnDropProbe(endpoint string) bool {
	inj := injector.Load()
	if inj == nil || inj.DropProbe == nil {
		return false
	}
	return inj.DropProbe(endpoint)
}

// OnDelayProbe invokes the DelayProbe hook. Call only when Armed.
func OnDelayProbe(endpoint string) time.Duration {
	inj := injector.Load()
	if inj == nil || inj.DelayProbe == nil {
		return 0
	}
	return inj.DelayProbe(endpoint)
}

// OnResetConn invokes the ResetConn hook. Call only when Armed.
func OnResetConn(endpoint string) bool {
	inj := injector.Load()
	if inj == nil || inj.ResetConn == nil {
		return false
	}
	return inj.ResetConn(endpoint)
}

// OnCorruptResponse invokes the CorruptResponse hook. Call only when Armed.
func OnCorruptResponse(endpoint string) bool {
	inj := injector.Load()
	if inj == nil || inj.CorruptResponse == nil {
		return false
	}
	return inj.CorruptResponse(endpoint)
}

// CancelAfterBlocks arms an injector that invokes cancel on the n-th
// checkpoint (and every one after, making the scenario robust to exact
// checkpoint counts shifting with data layout).
func CancelAfterBlocks(n uint64, cancel func()) {
	Arm(&Injector{BlockScan: func(c uint64) {
		if c >= n {
			cancel()
		}
	}})
}

// PanicAtBlock arms an injector that panics with value at the m-th
// checkpoint — the deterministic "poisoned block" of the chaos tests.
func PanicAtBlock(m uint64, value any) {
	Arm(&Injector{BlockScan: func(c uint64) {
		if c == m {
			panic(value)
		}
	}})
}

// SlowShardProbe arms an injector that sleeps for delay before every probe
// of shard s, widening the window for a deadline to expire mid-scatter.
func SlowShardProbe(s int, delay time.Duration) {
	Arm(&Injector{ShardProbe: func(probed int) {
		if probed == s {
			time.Sleep(delay)
		}
	}})
}

// DropEndpoint arms an injector that drops every probe attempt against the
// given endpoint — the "dead replica" of the chaos tests: the shard never
// sees the request and the envelope fails over.
func DropEndpoint(endpoint string) {
	Arm(&Injector{DropProbe: func(ep string) bool { return ep == endpoint }})
}

// ResetEndpoint arms an injector that resets every probe attempt against the
// given endpoint after the shard served it — the mid-query connection reset
// of the chaos tests.
func ResetEndpoint(endpoint string) {
	Arm(&Injector{ResetConn: func(ep string) bool { return ep == endpoint }})
}

// SlowEndpoint arms an injector that imposes delay on every probe attempt
// against the given endpoint — the slow remote shard of the chaos tests,
// wide enough to trip deadlines or hedging depending on the query budget.
func SlowEndpoint(endpoint string, delay time.Duration) {
	Arm(&Injector{DelayProbe: func(ep string) time.Duration {
		if ep == endpoint {
			return delay
		}
		return 0
	}})
}
