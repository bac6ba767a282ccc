// Package locality implements neighborhood (k-nearest-neighbor) computation
// through the locality algorithm of Sankaranarayanan, Samet and Varshney
// ("A fast all nearest neighbor algorithm for applications involving large
// point-clouds", Computers & Graphics 2007), reference [15] of the paper and
// the kNN engine used throughout its experiments.
//
// Definitions follow the paper's Section 2: the *neighborhood* of a point p
// is the set of its k nearest data points; the *locality* of p is a set of
// index blocks guaranteed to contain that neighborhood. The locality is
// built in two phases over block counts only:
//
//  1. blocks are consumed in increasing MAXDIST order from p until the
//     accumulated point count reaches k; the MAXDIST bound M of the last
//     consumed block is recorded (the k-th nearest neighbor is at distance
//     at most M);
//  2. every remaining block with MINDIST ≤ M is added (such blocks may hold
//     points closer than M that displace phase-1 candidates).
//
// The neighborhood is then selected from the points of the locality blocks
// alone. Section 5 of the paper clips this construction with a search
// threshold to evaluate two kNN-select predicates; see NeighborhoodClipped.
//
// Ownership contract: a Searcher owns mutable scratch (iterator pools, the
// selection heap, one reusable Neighborhood result) and is single-threaded
// by design; every Neighborhood* method returns a pointer into the
// searcher's result buffer, valid only until the searcher's next query.
// Callers that retain a result must copy it out with Neighborhood.Clone.
// Concurrent serving stacks on top of this contract in internal/core: a
// SearcherPool hands each goroutine its own Searcher-carrying handle.
package locality

import (
	"context"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/stats"
)

// Neighborhood is the result of a k-nearest-neighbor computation: the
// neighbors of Center in ascending (distance, X, Y) order.
type Neighborhood struct {
	// Center is the query point the neighborhood was computed for.
	Center geom.Point

	// Points holds up to k neighbors sorted ascending by distance to
	// Center, exact distance ties broken by (X, Y). Fewer than k points are
	// returned only when the data set itself holds fewer than k points.
	Points []geom.Point

	// Dists holds the distances of Points to Center, parallel to Points.
	Dists []float64
}

// Len returns the number of neighbors found.
func (n *Neighborhood) Len() int { return len(n.Points) }

// Nearest returns the closest neighbor. It panics on an empty neighborhood;
// callers guard with Len.
func (n *Neighborhood) Nearest() geom.Point { return n.Points[0] }

// Farthest returns the k-th (most distant) neighbor. It panics on an empty
// neighborhood.
func (n *Neighborhood) Farthest() geom.Point { return n.Points[len(n.Points)-1] }

// FarthestDist returns the distance from Center to the most distant
// neighbor, or 0 for an empty neighborhood.
func (n *Neighborhood) FarthestDist() float64 {
	if len(n.Dists) == 0 {
		return 0
	}
	return n.Dists[len(n.Dists)-1]
}

// NearestDistTo returns the minimum distance from q to any neighbor, or
// +Inf for an empty neighborhood.
func (n *Neighborhood) NearestDistTo(q geom.Point) float64 {
	return math.Sqrt(n.NearestDistSqTo(q))
}

// NearestDistSqTo is NearestDistTo in squared form. The Counting algorithm
// derives its search threshold from this quantity — squared, so the
// threshold compares exactly against block MAXDIST² values without a
// sqrt-then-square round trip (whose rounding can shift the threshold past
// an exactly-tied block boundary).
func (n *Neighborhood) NearestDistSqTo(q geom.Point) float64 {
	best := math.Inf(1)
	for _, p := range n.Points {
		if d := p.DistSq(q); d < best {
			best = d
		}
	}
	return best
}

// FarthestDistTo returns the maximum distance from q to any neighbor, or 0
// for an empty neighborhood.
func (n *Neighborhood) FarthestDistTo(q geom.Point) float64 {
	return math.Sqrt(n.FarthestDistSqTo(q))
}

// FarthestDistSqTo is FarthestDistTo in squared form. The 2-kNN-select
// algorithm derives its search threshold from this quantity — squared, for
// the same exactness reason as NearestDistSqTo: sqrt(d²)² can round below
// d², and a tight-MBR block (an overlay delta chunk) whose boundary sits
// exactly at the threshold distance would then be clipped out of the
// locality, dropping an answer point. The native fuzz harness found exactly
// that divergence.
func (n *Neighborhood) FarthestDistSqTo(q geom.Point) float64 {
	best := 0.0
	for _, p := range n.Points {
		if d := p.DistSq(q); d > best {
			best = d
		}
	}
	return best
}

// Contains reports whether p is one of the neighbors. Neighborhood sizes are
// small (k), so a linear scan beats building a set.
func (n *Neighborhood) Contains(p geom.Point) bool {
	for _, q := range n.Points {
		if q == p {
			return true
		}
	}
	return false
}

// Clone returns an independent deep copy of the neighborhood.
//
// Searcher results are reused across calls (see Searcher.Neighborhood), so
// any caller that retains a result past the searcher's next query — or
// mutates it — must clone it first. Callers that only read the result
// before the next query, or copy the points they need, should not.
func (n *Neighborhood) Clone() *Neighborhood {
	return &Neighborhood{
		Center: n.Center,
		Points: append([]geom.Point(nil), n.Points...),
		Dists:  append([]float64(nil), n.Dists...),
	}
}

// Intersect returns the multiset intersection of the two neighborhoods, in
// n's order: a point value appearing a times in n and b times in m appears
// min(a, b) times in the result (n's first min(a, b) occurrences are kept).
//
// The multiplicity rule matters for co-located duplicate points at a k
// boundary: a neighborhood of size k may hold fewer copies of a value than
// exist in the data. Counting each of n's copies once m merely contains the
// value — the previous behavior — made the intersection asymmetric, so the
// conceptual and optimized two-select plans (which evaluate the predicates
// in different orders) disagreed on duplicates; the native fuzz harness
// found the divergence on three co-located points. min-multiplicity is
// symmetric, and all plans agree again.
//
// Both operands must be in Neighborhood order — ascending (distance², X, Y)
// about their own Center — as every producer leaves them: the Searcher, the
// shard merge, a shard group answer's view and NaiveKNN. Copies of one point
// are then adjacent in n, so Intersect walks n's runs of equal points, and
// finds each one's multiplicity in m by two binary searches over m's order,
// recomputing distances with geom.Point.DistSq — bit-identical to the
// kernels that ordered m. The cost is O(|n|·log|m|); the result is
// allocated once, at the first match.
func (n *Neighborhood) Intersect(m *Neighborhood) []geom.Point {
	var out []geom.Point
	for i := 0; i < len(n.Points); {
		p := n.Points[i]
		a := 1
		for i+a < len(n.Points) && n.Points[i+a] == p {
			a++
		}
		if b := m.multiplicity(p); b > 0 {
			if out == nil {
				out = make([]geom.Point, 0, min(len(n.Points)-i, len(m.Points)))
			}
			for range min(a, b) {
				out = append(out, p)
			}
		}
		i += a
	}
	return out
}

// multiplicity returns the number of copies of p among n's points: the first
// entry not ordering before p under lessPD, then the end of the run of p
// that starts there. A point that compares unequal to itself (NaN
// coordinates) is never found.
func (n *Neighborhood) multiplicity(p geom.Point) int {
	pts, e := n.Points, pdEntry{p: p, dSq: p.DistSq(n.Center)}
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if lessPD(pdEntry{p: pts[mid], dSq: pts[mid].DistSq(n.Center)}, e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(pts) || pts[lo] != p {
		return 0
	}
	end, hi := lo+1, len(pts)
	for end < hi {
		mid := int(uint(end+hi) >> 1)
		if pts[mid] == p {
			end = mid + 1
		} else {
			hi = mid
		}
	}
	return end - lo
}

// NaiveKNN computes the k nearest neighbors of p among pts by sorting all
// candidates. It is the reference implementation the property tests compare
// everything against, and is also used directly on tiny candidate sets.
func NaiveKNN(pts []geom.Point, p geom.Point, k int) *Neighborhood {
	if k <= 0 {
		return &Neighborhood{Center: p}
	}
	cands := make([]geom.Point, len(pts))
	copy(cands, pts)
	sort.Slice(cands, func(i, j int) bool { return cands[i].CloserTo(p, cands[j]) })
	if len(cands) > k {
		cands = cands[:k]
	}
	dists := make([]float64, len(cands))
	for i, q := range cands {
		dists[i] = q.Dist(p)
	}
	return &Neighborhood{Center: p, Points: cands, Dists: dists}
}

// Searcher computes neighborhoods over one index, reusing internal scratch
// buffers across queries. A Searcher is not safe for concurrent use; create
// one per goroutine with Clone.
//
// Results are reused too: every Neighborhood* method returns a pointer to
// the Searcher's single result buffer, valid until the next query on the
// same Searcher. In steady state a query therefore allocates nothing —
// iterators, the selection heap and the result arrays all live in the
// Searcher. Callers that retain a result across queries must Clone it.
type Searcher struct {
	ix     index.Index
	blocks []*index.Block
	iters  *index.IterPool

	// ctx/done/expired carry the cooperative-cancellation binding of the
	// current query (see Bind): done is ctx's channel, saved for the
	// fault-harness checkpoint's direct poll; expired is the watcher
	// goroutine's flag, the only thing the production checkpoint reads — a
	// single atomic load, with no channel select (≈20ns) or ctx.Err() mutex
	// on the per-block path. stopWatch retires the watcher on unbind.
	ctx       context.Context
	done      <-chan struct{}
	expired   *atomic.Bool
	stopWatch chan struct{}

	// scratch buffers, reused across queries
	heap    maxKHeap
	result  Neighborhood
	inLoc   []bool // per-block locality membership, cleared via touched
	touched []int  // block IDs marked in inLoc during the current query
	span    spanScratch
}

// NewSearcher returns a Searcher over ix.
func NewSearcher(ix index.Index) *Searcher {
	return &Searcher{ix: ix, blocks: ix.Blocks(), iters: index.NewIterPool(ix)}
}

// Clone returns an independent Searcher over the same index, for concurrent
// use from another goroutine.
func (s *Searcher) Clone() *Searcher { return NewSearcher(s.ix) }

// Index returns the index the Searcher operates on.
func (s *Searcher) Index() index.Index { return s.ix }

// Bind attaches ctx as the searcher's cancellation context: every block
// iteration of every subsequent query checkpoints against it (see
// Checkpoint). Bind(nil) detaches, restoring the zero-overhead un-cancellable
// behavior; pooled handles are detached on release so a stale context can
// never cancel a later borrower's query.
//
// Binding a cancellable context spawns a watcher goroutine that waits on
// ctx.Done() and flips the searcher's cancellation flag the moment the
// context ends, so the per-block checkpoint needs only an atomic load.
// Unbinding (or rebinding) retires the watcher; the flag pointer is fresh
// per bind, so a watcher racing its own retirement can never mark a later
// binding cancelled.
func (s *Searcher) Bind(ctx context.Context) {
	if s.stopWatch != nil {
		close(s.stopWatch)
		s.stopWatch = nil
	}
	s.ctx, s.done, s.expired = ctx, nil, nil
	if ctx == nil {
		return
	}
	done := ctx.Done()
	if done == nil {
		return // e.g. context.Background(): bound but never cancellable
	}
	expired := new(atomic.Bool)
	stop := make(chan struct{})
	s.done, s.expired, s.stopWatch = done, expired, stop
	go func() {
		select {
		case <-done:
			expired.Store(true)
		case <-stop:
		}
	}()
}

// Context returns the bound cancellation context, or nil when detached. The
// join driver reads it off the caller's handle to propagate the binding onto
// the extra handles its workers borrow.
func (s *Searcher) Context() context.Context { return s.ctx }

// Checkpoint is the cooperative cancellation (and fault-injection) point,
// invoked once per block span — never per point, so the batched distance
// kernels below it run uninterrupted. When the bound context is done it
// panics with a *fault.Cancel carrying the context's error; the unwind runs
// the query's deferred handle releases and the public entry points recover
// the payload into their typed cancellation error.
//
// The production cost is one atomic load of the global injection-armed flag
// plus, on bound searchers, one atomic load of the watcher's cancellation
// flag — Bind's watcher goroutine does the channel wait off the query path,
// so a cancel still stops the query within a block scan of the flag flip.
// While the fault harness is armed (tests only) the checkpoint additionally
// polls the context channel directly, making hook-driven cancellation
// deterministic at the exact injected block.
func (s *Searcher) Checkpoint() {
	if fault.Armed() {
		fault.OnBlockScan()
		s.pollContext()
		return
	}
	if s.expired != nil && s.expired.Load() {
		panic(&fault.Cancel{Err: s.ctx.Err()})
	}
}

// pollContext is the armed-harness checkpoint tail: a direct non-blocking
// receive on the bound context's channel, so a hook that cancels at block N
// unwinds at block N+1 with no watcher-goroutine scheduling in between.
func (s *Searcher) pollContext() {
	if s.done == nil {
		return
	}
	select {
	case <-s.done:
		panic(&fault.Cancel{Err: s.ctx.Err()})
	default:
	}
}

// Neighborhood returns the k nearest neighbors of p using the two-phase
// locality construction. c may be nil.
func (s *Searcher) Neighborhood(p geom.Point, k int, c *stats.Counters) *Neighborhood {
	return s.neighborhood(p, k, math.Inf(1), c)
}

// NeighborhoodClipped is Neighborhood with the Section 5 refinement exactly
// as in the paper's Procedure 5: the two-phase locality construction runs
// unchanged (blocks are counted toward k in MAXDIST order, M is recorded),
// but a block enters the locality only if its MINDIST from p is at most
// threshold. The returned set is the k closest points among the clipped
// locality — NOT in general the true k-nearest neighbors of p. Its
// guarantee (enforced by tests): intersecting it with any point set whose
// members all lie within threshold of p yields the same result as
// intersecting with the true neighborhood. The clipping removes only blocks
// with MINDIST > threshold, all of whose points are farther from p than any
// such member q; so the locality points ranked ahead of q are the same with
// and without clipping, q keeps its rank, and it makes the clipped top k
// exactly when it makes the true one.
func (s *Searcher) NeighborhoodClipped(p geom.Point, k int, threshold float64, c *stats.Counters) *Neighborhood {
	return s.neighborhood(p, k, threshold*threshold, c)
}

// NeighborhoodClippedSq is NeighborhoodClipped taking the threshold in
// squared form. Callers whose threshold originates from a squared distance
// must use it: squaring a sqrt-derived threshold can round below the exact
// value and clip out an exactly-at-threshold block.
func (s *Searcher) NeighborhoodClippedSq(p geom.Point, k int, thresholdSq float64, c *stats.Counters) *Neighborhood {
	return s.neighborhood(p, k, thresholdSq, c)
}

// NeighborhoodWithinSq is NeighborhoodWithin taking the threshold in squared
// form; see NeighborhoodClippedSq for why exact callers need it.
func (s *Searcher) NeighborhoodWithinSq(p geom.Point, k int, thresholdSq float64, c *stats.Counters) *Neighborhood {
	return s.neighborhoodWithinSq(p, k, thresholdSq, c)
}

// NeighborhoodWithin strengthens NeighborhoodClipped: it admits exactly the
// blocks with MINDIST(p) ≤ threshold, skipping Procedure 5's count-to-k
// phase entirely, so its cost depends only on the threshold area — not on
// k. It provides the same guarantee as NeighborhoodClipped (same proof: any
// point ranked closer to p than a within-threshold candidate is itself
// within threshold, hence its block is admitted), which is all the
// 2-kNN-select intersection needs. This is the repository's implementation
// refinement over Procedure 5.
func (s *Searcher) NeighborhoodWithin(p geom.Point, k int, threshold float64, c *stats.Counters) *Neighborhood {
	return s.neighborhoodWithinSq(p, k, threshold*threshold, c)
}

func (s *Searcher) neighborhoodWithinSq(p geom.Point, k int, thresholdSq float64, c *stats.Counters) *Neighborhood {
	if k <= 0 {
		return s.emptyResult(p)
	}
	s.heap.reset(k)
	it := s.iters.MinDist(p)
	scanned, examined := 0, 0
	for {
		s.Checkpoint()
		b, minSq, ok := it.Next()
		if !ok || minSq > thresholdSq {
			break
		}
		// Blocks arrive in increasing MINDIST order, so once the heap holds
		// k candidates no block beyond the k-th distance can contribute.
		if s.heap.full() && minSq > s.heap.boundSq() {
			break
		}
		scanned++
		examined += s.scanSpan(b, p)
	}
	c.AddBlocksScanned(scanned)
	c.AddNeighborhood(examined)
	return s.heap.extractInto(&s.result, p)
}

// scanSpan feeds the points of b into the selection heap via the span scan
// on maxKHeap (see kheap.go).
func (s *Searcher) scanSpan(b *index.Block, p geom.Point) int {
	return s.heap.scanSpan(b, p, &s.span)
}

// CountStrictlyCloser counts indexed points in blocks whose MAXDIST from p
// is strictly below the (squared) threshold, consuming blocks in MAXDIST
// order and stopping early once the count reaches k. It is the per-tuple
// primitive of the Counting algorithm (Procedure 1): a return value of k or
// more proves the k nearest neighbors of p all lie strictly within the
// threshold. The scan state is pooled, so steady-state calls allocate
// nothing.
func (s *Searcher) CountStrictlyCloser(p geom.Point, k int, thresholdSq float64, c *stats.Counters) int {
	count, scanned := 0, 0
	it := s.iters.MaxDist(p)
	for count < k {
		s.Checkpoint()
		b, maxSq, ok := it.Next()
		if !ok {
			break
		}
		scanned++
		if maxSq >= thresholdSq {
			break // this block and all following are not strictly inside
		}
		count += b.Count()
	}
	c.AddBlocksScanned(scanned)
	return count
}

func (s *Searcher) neighborhood(p geom.Point, k int, thresholdSq float64, c *stats.Counters) *Neighborhood {
	if k <= 0 {
		return s.emptyResult(p)
	}
	if len(s.inLoc) < len(s.blocks) {
		s.inLoc = make([]bool, len(s.blocks))
	}
	s.touched = s.touched[:0]
	s.heap.reset(k)
	examined := 0

	// Phase 1: MAXDIST order until the accumulated count reaches k. The
	// iterator is incremental where the index supports it, so only blocks
	// near p are touched. Admitted blocks feed the selection heap directly;
	// once the heap is full, a block whose MINDIST exceeds the running k-th
	// distance is marked consumed without examining its points.
	maxIt := s.iters.MaxDist(p)
	count := 0
	mSq := math.Inf(1) // bound on the k-th NN distance, squared
	scanned := 0
	for count < k {
		s.Checkpoint()
		b, maxSq, ok := maxIt.Next()
		if !ok {
			break // fewer than k points in the whole data set
		}
		scanned++
		if b.Count() == 0 {
			continue
		}
		count += b.Count()
		mSq = maxSq
		minSq := b.Bounds.MinDistSq(p)
		if minSq <= thresholdSq {
			s.inLoc[b.ID] = true
			s.touched = append(s.touched, b.ID)
			if !s.heap.full() || minSq <= s.heap.boundSq() {
				examined += s.scanSpan(b, p)
			}
		}
	}

	// Phase 2: remaining blocks in MINDIST order may hold closer points.
	// The stop bound starts at M ([15]'s optimal-locality criterion) and
	// tightens to the heap's running k-th distance as soon as the heap is
	// full — far-but-qualifying blocks under M are skipped entirely.
	if count >= k {
		minIt := s.iters.MinDist(p)
		for {
			s.Checkpoint()
			b, minSq, ok := minIt.Next()
			if !ok {
				break
			}
			bound := mSq
			if s.heap.full() && s.heap.boundSq() < bound {
				bound = s.heap.boundSq()
			}
			if minSq > bound {
				break
			}
			scanned++
			if b.Count() == 0 || s.inLoc[b.ID] {
				continue
			}
			if minSq <= thresholdSq {
				examined += s.scanSpan(b, p)
			}
		}
	}
	c.AddBlocksScanned(scanned)

	// Clear the membership scratch for the next query.
	for _, id := range s.touched {
		s.inLoc[id] = false
	}

	c.AddNeighborhood(examined)
	return s.heap.extractInto(&s.result, p)
}

// emptyResult resets and returns the reusable result as an empty
// neighborhood centered at p.
func (s *Searcher) emptyResult(p geom.Point) *Neighborhood {
	s.result.Center = p
	s.result.Points = s.result.Points[:0]
	s.result.Dists = s.result.Dists[:0]
	return &s.result
}

// pdEntry is a candidate neighbor with its squared distance.
type pdEntry struct {
	p   geom.Point
	dSq float64
}

// lessPD reports whether a orders before b as a neighbor: smaller distance
// first, exact ties by canonical point order.
func lessPD(a, b pdEntry) bool {
	if a.dSq != b.dSq {
		return a.dSq < b.dSq
	}
	return a.p.Less(b.p)
}

// maxKHeap is the k-selection buffer: it fills unsorted until it holds k
// candidates, is then heapified once, bottom-up, into a bounded max-heap on
// the neighbor order (worst candidate at the root), and is sorted once on
// extraction. Candidates are fed through offer, which ignores those that
// cannot displace the current k-th neighbor; once full, boundSq exposes the
// running k-th distance for block-level pruning.
//
// The answer does not depend on the heap's internal layout: lessPD is a
// total order on distinct (dSq, X, Y) values and equal entries are identical
// points, so the held multiset — and hence its sorted order — is the same
// whatever order candidates were appended, heapified or displaced in. The
// only layout read, the root, is read only once the heap is full.
type maxKHeap struct {
	k     int
	items []pdEntry
}

// reset prepares the heap for a new query of size k.
func (h *maxKHeap) reset(k int) {
	h.k = k
	h.items = h.items[:0]
}

// full reports whether the heap holds k candidates.
func (h *maxKHeap) full() bool { return len(h.items) >= h.k }

// boundSq returns the squared distance of the current k-th (worst) held
// candidate. Call only when full.
func (h *maxKHeap) boundSq() float64 { return h.items[0].dSq }

// offer considers one candidate. Below k it is appended unsorted, and the
// append that brings the heap to k heapifies it; from then on a candidate
// displaces the worst held one when it orders before it.
func (h *maxKHeap) offer(q geom.Point, dSq float64) {
	e := pdEntry{p: q, dSq: dSq}
	if len(h.items) < h.k {
		h.items = append(h.items, e)
		if len(h.items) == h.k {
			for i := len(h.items)/2 - 1; i >= 0; i-- {
				h.siftDown(i)
			}
		}
		return
	}
	if lessPD(e, h.items[0]) {
		h.items[0] = e
		h.siftDown(0)
	}
}

// extractInto empties the heap into res in ascending neighbor order with one
// sort of the held candidates — heap-ordered if the heap filled, in arrival
// order if it never did — reusing res's backing arrays when they are large
// enough.
func (h *maxKHeap) extractInto(res *Neighborhood, center geom.Point) *Neighborhood {
	sortPD(h.items)
	n := len(h.items)
	res.Center = center
	if cap(res.Points) < n {
		res.Points = make([]geom.Point, n)
		res.Dists = make([]float64, n)
	} else {
		res.Points = res.Points[:n]
		res.Dists = res.Dists[:n]
	}
	for i, e := range h.items {
		res.Points[i] = e.p
		res.Dists[i] = math.Sqrt(e.dSq)
	}
	h.items = h.items[:0]
	return res
}

// sortPD sorts s ascending in lessPD order without allocating. It is a
// three-way quicksort: co-located duplicates are common in trajectory data
// (a BerlinMOD relation repeats one position up to hundreds of times), and
// the equal band collapses each run into one partition step. Spans of up to
// 12 entries finish by insertion sort.
func sortPD(s []pdEntry) {
	for len(s) > 12 {
		a, b, c := s[0], s[len(s)/2], s[len(s)-1]
		if lessPD(b, a) {
			a, b = b, a
		}
		if lessPD(c, b) {
			b = c
			if lessPD(b, a) {
				b = a
			}
		}
		pivot := b // median of three
		lt, i, gt := 0, 0, len(s)
		for i < gt {
			switch {
			case lessPD(s[i], pivot):
				s[lt], s[i] = s[i], s[lt]
				lt++
				i++
			case lessPD(pivot, s[i]):
				gt--
				s[i], s[gt] = s[gt], s[i]
			default:
				i++
			}
		}
		// Recurse into the smaller side, loop on the larger: stack depth
		// stays O(log n).
		if lt < len(s)-gt {
			sortPD(s[:lt])
			s = s[gt:]
		} else {
			sortPD(s[gt:])
			s = s[:lt]
		}
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && lessPD(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func (h *maxKHeap) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && lessPD(h.items[largest], h.items[l]) {
			largest = l
		}
		if r < n && lessPD(h.items[largest], h.items[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}
