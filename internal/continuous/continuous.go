// Package continuous provides incremental evaluation of kNN-select
// predicates — and of the two-kNN-select query — over a changing point set.
// The paper's Section 7 names "incremental evaluation of continuous queries
// with two kNN predicates" as future work; this package implements the
// snapshot-to-continuous step for the select/select case, the combination
// whose one-shot form Procedure 5 optimizes.
//
// The model: a mutable relation (a twoknn.Relation: delta overlay, stable
// IDs, background compaction) receives point insertions and removals (e.g.
// vehicles reporting new positions). Each registered monitor maintains its
// predicate's current answer and emits change events instead of
// recomputing from scratch:
//
//   - an insertion enters a neighborhood iff it beats the current k-th
//     neighbor (O(k) check, no index traversal);
//   - a removal triggers a fresh kNN-select only when the removed point was
//     a member (removals of non-members are free);
//   - the two-select monitor derives intersection changes from the two
//     membership deltas alone.
//
// Monitors are not safe for concurrent use; updates and reads must be
// serialized by the caller, matching the single-writer shape of a
// location-update stream.
package continuous

import (
	"fmt"
	"math"
	"slices"

	twoknn "repro"
	"repro/internal/geom"
	"repro/internal/stats"
)

// EventKind classifies a change to a monitored answer set.
type EventKind int

// The event kinds.
const (
	// Added reports a point entering the answer.
	Added EventKind = iota

	// Removed reports a point leaving the answer.
	Removed
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if k == Removed {
		return "removed"
	}
	return "added"
}

// Event is one change to a monitored answer set.
type Event struct {
	Kind  EventKind
	Point geom.Point
}

// String implements fmt.Stringer.
func (e Event) String() string { return fmt.Sprintf("%s %v", e.Kind, e.Point) }

// Relation is a mutable point set shared by any number of monitors. Every
// mutation must go through Insert/Remove so all registered monitors observe
// it.
type Relation struct {
	rel *twoknn.Relation

	// ids holds the stable IDs of the live instances at each coordinate:
	// callers name points by value, the store removes by ID.
	ids      map[geom.Point][]int32
	monitors []monitor
}

// monitor is the internal update interface of registered predicates.
type monitor interface {
	onInsert(p geom.Point)
	onRemove(p geom.Point)
}

// NewRelation builds a mutable relation over bounds, pre-populated with
// pts. Bounds fix the initial indexed region (required when pts is empty);
// later insertions may fall outside it.
func NewRelation(bounds geom.Rect, pts []geom.Point) (*Relation, error) {
	rel, err := twoknn.NewRelation("continuous", pts, twoknn.WithBounds(bounds))
	if err != nil {
		return nil, err
	}
	ids := make(map[geom.Point][]int32, len(pts))
	for i, p := range pts {
		ids[p] = append(ids[p], int32(i))
	}
	return &Relation{rel: rel, ids: ids}, nil
}

// Len returns the current cardinality.
func (r *Relation) Len() int { return r.rel.Len() }

// DeltaStats returns the mutation state of the backing store.
func (r *Relation) DeltaStats() twoknn.DeltaStats { return r.rel.DeltaStats() }

// Insert adds a point and updates every registered monitor. It errors on a
// NaN coordinate: such a point equals no value, itself included, so Remove
// could never name it again.
func (r *Relation) Insert(p geom.Point) error {
	if math.IsNaN(p.X) || math.IsNaN(p.Y) {
		return fmt.Errorf("continuous: cannot insert %v: NaN coordinate", p)
	}
	r.ids[p] = append(r.ids[p], r.rel.Insert(p)[0])
	for _, m := range r.monitors {
		m.onInsert(p)
	}
	return nil
}

// Remove deletes one instance of p and updates every registered monitor.
// It reports whether an instance existed.
func (r *Relation) Remove(p geom.Point) bool {
	at := r.ids[p]
	if len(at) == 0 {
		return false
	}
	last := len(at) - 1
	r.rel.Remove(at[last])
	if last == 0 {
		delete(r.ids, p)
	} else {
		r.ids[p] = at[:last]
	}
	for _, m := range r.monitors {
		m.onRemove(p)
	}
	return true
}

// Move is a convenience for location updates: remove the old position,
// insert the new one. The two stay separate store mutations, so a monitor
// that recomputes on the removal does not already see the new position and
// then admit it a second time on the insertion.
func (r *Relation) Move(from, to geom.Point) error {
	if !r.Remove(from) {
		return fmt.Errorf("continuous: Move source %v not present", from)
	}
	return r.Insert(to)
}

// SelectMonitor maintains σ_{k,f}(E) continuously.
type SelectMonitor struct {
	rel *Relation
	f   geom.Point
	k   int

	// answer is the current result in ascending (distance, X, Y) order.
	answer []geom.Point
	events []Event
	stats  stats.Counters
}

// MonitorSelect registers a continuous kNN-select over the relation and
// returns its monitor, primed with the current answer (priming emits no
// events).
func (r *Relation) MonitorSelect(f geom.Point, k int) (*SelectMonitor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("continuous: k must be positive, got %d", k)
	}
	m := &SelectMonitor{rel: r, f: f, k: k}
	m.recompute()
	r.monitors = append(r.monitors, m)
	return m, nil
}

// recompute replaces the answer with a from-scratch kNN-select over the
// store's current snapshot.
func (m *SelectMonitor) recompute() {
	pts, err := m.rel.rel.KNNSelect(m.f, m.k, twoknn.WithStats(&m.stats))
	if err != nil {
		// k was validated at registration and no context is bound, so only
		// an engine fault can land here.
		panic(err)
	}
	m.answer = pts
}

// Current returns the predicate's current answer, ascending by distance to
// the focal point. The slice is owned by the monitor.
func (m *SelectMonitor) Current() []geom.Point { return m.answer }

// Contains reports whether p is in the current answer. Answers are small
// (k), so a linear scan beats keeping a set.
func (m *SelectMonitor) Contains(p geom.Point) bool { return slices.Contains(m.answer, p) }

// Drain returns the events accumulated since the last call and resets the
// buffer.
func (m *SelectMonitor) Drain() []Event {
	ev := m.events
	m.events = nil
	return ev
}

// Stats returns the operation counters accumulated by the monitor,
// including the priming computation.
func (m *SelectMonitor) Stats() stats.Counters { return m.stats }

// onInsert implements monitor: the new point enters the neighborhood iff it
// ranks before the current k-th neighbor (or the neighborhood is not full).
func (m *SelectMonitor) onInsert(p geom.Point) {
	if len(m.answer) >= m.k {
		kth := m.answer[len(m.answer)-1]
		if !p.CloserTo(m.f, kth) {
			return // ranks behind the k-th neighbor: answer unchanged
		}
	}
	// Insert p at its rank.
	pos := len(m.answer)
	for i, q := range m.answer {
		if p.CloserTo(m.f, q) {
			pos = i
			break
		}
	}
	m.answer = append(m.answer, geom.Point{})
	copy(m.answer[pos+1:], m.answer[pos:])
	m.answer[pos] = p
	m.events = append(m.events, Event{Kind: Added, Point: p})

	if len(m.answer) > m.k {
		evicted := m.answer[m.k]
		m.answer = m.answer[:m.k]
		m.events = append(m.events, Event{Kind: Removed, Point: evicted})
	}
}

// onRemove implements monitor: a removal only matters when the removed
// instance was a member; the replacement neighbor requires an index search.
func (m *SelectMonitor) onRemove(p geom.Point) {
	if !m.Contains(p) {
		// With duplicate coordinates the removed instance may not be the
		// member instance, but membership is by coordinate, so a remaining
		// duplicate keeps the answer unchanged — Contains covers both.
		return
	}
	// Membership is by coordinate: if another instance with the same
	// coordinates remains in the relation, the answer is unchanged.
	old := m.answer
	m.recompute()
	for _, q := range old {
		if !slices.Contains(m.answer, q) {
			m.events = append(m.events, Event{Kind: Removed, Point: q})
		}
	}
	for _, q := range m.answer {
		if !slices.Contains(old, q) {
			m.events = append(m.events, Event{Kind: Added, Point: q})
		}
	}
}

// TwoSelectMonitor maintains σ_{k1,f1}(E) ∩ σ_{k2,f2}(E) continuously by
// composing two SelectMonitors and tracking their membership deltas.
type TwoSelectMonitor struct {
	m1, m2 *SelectMonitor
	inter  map[geom.Point]struct{}
	events []Event
}

// MonitorTwoSelects registers a continuous two-kNN-select query.
func (r *Relation) MonitorTwoSelects(f1 geom.Point, k1 int, f2 geom.Point, k2 int) (*TwoSelectMonitor, error) {
	m1, err := r.MonitorSelect(f1, k1)
	if err != nil {
		return nil, err
	}
	m2, err := r.MonitorSelect(f2, k2)
	if err != nil {
		return nil, err
	}
	t := &TwoSelectMonitor{m1: m1, m2: m2, inter: make(map[geom.Point]struct{})}
	for _, p := range m1.Current() {
		if m2.Contains(p) {
			t.inter[p] = struct{}{}
		}
	}
	r.monitors = append(r.monitors, t)
	return t, nil
}

// Current returns the intersection's current answer in canonical point
// order.
func (t *TwoSelectMonitor) Current() []geom.Point {
	out := make([]geom.Point, 0, len(t.inter))
	for p := range t.inter {
		out = append(out, p)
	}
	twoknn.SortPoints(out)
	return out
}

// Drain returns the intersection-change events accumulated since the last
// call and resets the buffer. The underlying per-predicate monitors retain
// their own event streams.
func (t *TwoSelectMonitor) Drain() []Event {
	ev := t.events
	t.events = nil
	return ev
}

// onInsert implements monitor. It runs AFTER the two component monitors
// (registration order), so their answers are already up to date; the
// intersection is reconciled from their membership.
func (t *TwoSelectMonitor) onInsert(geom.Point) { t.reconcile() }

// onRemove implements monitor.
func (t *TwoSelectMonitor) onRemove(geom.Point) { t.reconcile() }

// reconcile applies the component monitors' pending membership to the
// intersection set. Component answers are small (k points), so the
// reconciliation walks them directly — no index work.
func (t *TwoSelectMonitor) reconcile() {
	fresh := make(map[geom.Point]struct{})
	for _, p := range t.m1.Current() {
		if t.m2.Contains(p) {
			fresh[p] = struct{}{}
		}
	}
	for p := range t.inter {
		if _, ok := fresh[p]; !ok {
			t.events = append(t.events, Event{Kind: Removed, Point: p})
		}
	}
	for p := range fresh {
		if _, ok := t.inter[p]; !ok {
			t.events = append(t.events, Event{Kind: Added, Point: p})
		}
	}
	t.inter = fresh
}
