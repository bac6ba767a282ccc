package continuous_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/continuous"
	"repro/internal/geom"
	"repro/internal/locality"
	"repro/internal/testutil"
)

var contBounds = geom.NewRect(0, 0, 1000, 1000)

func newRelation(t *testing.T, pts []geom.Point) *continuous.Relation {
	t.Helper()
	rel, err := continuous.NewRelation(contBounds, pts)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestSelectMonitorMatchesRecompute is the central continuous-query
// property: after every mutation, the monitor's answer equals a fresh
// neighborhood computation over the current point set.
func TestSelectMonitorMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(1401))
	pts := testutil.UniformPoints(300, contBounds, 1402)
	live := append([]geom.Point{}, pts...)

	rel := newRelation(t, pts)
	f := geom.Point{X: 500, Y: 500}
	const k = 12
	m, err := rel.MonitorSelect(f, k)
	if err != nil {
		t.Fatal(err)
	}

	for step := 0; step < 400; step++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			p := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			if err := rel.Insert(p); err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
		} else {
			i := rng.Intn(len(live))
			p := live[i]
			if !rel.Remove(p) {
				t.Fatalf("step %d: Remove(%v) found nothing", step, p)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}

		want := locality.NaiveKNN(live, f, k)
		got := m.Current()
		if len(got) != len(want.Points) {
			t.Fatalf("step %d: monitor holds %d points, recompute %d", step, len(got), len(want.Points))
		}
		for i := range got {
			if got[i] != want.Points[i] {
				t.Fatalf("step %d: monitor[%d] = %v, recompute %v", step, i, got[i], want.Points[i])
			}
		}
	}
	if m.Stats().Neighborhoods == 0 {
		t.Errorf("monitor should have recorded neighborhood computations")
	}
}

// TestSelectMonitorEvents checks the event stream: every Added/Removed event
// corresponds to an actual membership change, and replaying events over the
// initial answer reproduces the final answer.
func TestSelectMonitorEvents(t *testing.T) {
	pts := testutil.UniformPoints(100, contBounds, 1411)
	rel := newRelation(t, pts)
	f := geom.Point{X: 200, Y: 200}
	m, err := rel.MonitorSelect(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ev := m.Drain(); len(ev) != 0 {
		t.Fatalf("priming must not emit events, got %v", ev)
	}

	members := make(map[geom.Point]struct{})
	for _, p := range m.Current() {
		members[p] = struct{}{}
	}

	rng := rand.New(rand.NewSource(1412))
	for step := 0; step < 150; step++ {
		// Bias insertions near the focal point so the answer churns.
		p := geom.Point{X: 150 + rng.Float64()*100, Y: 150 + rng.Float64()*100}
		if err := rel.Insert(p); err != nil {
			t.Fatal(err)
		}
		for _, ev := range m.Drain() {
			switch ev.Kind {
			case continuous.Added:
				if _, ok := members[ev.Point]; ok {
					t.Fatalf("step %d: Added event for existing member %v", step, ev.Point)
				}
				members[ev.Point] = struct{}{}
			case continuous.Removed:
				if _, ok := members[ev.Point]; !ok {
					t.Fatalf("step %d: Removed event for non-member %v", step, ev.Point)
				}
				delete(members, ev.Point)
			}
		}
	}
	if len(members) != len(m.Current()) {
		t.Fatalf("event replay holds %d members, answer has %d", len(members), len(m.Current()))
	}
	for _, p := range m.Current() {
		if _, ok := members[p]; !ok {
			t.Fatalf("event replay missing member %v", p)
		}
	}
}

// TestSelectMonitorInsertionsAreCheap verifies the incremental claim: a
// burst of insertions far from the focal point triggers no neighborhood
// recomputation at all.
func TestSelectMonitorInsertionsAreCheap(t *testing.T) {
	pts := testutil.UniformPoints(200, geom.NewRect(0, 0, 100, 100), 1421)
	rel := newRelation(t, pts)
	m, err := rel.MonitorSelect(geom.Point{X: 50, Y: 50}, 8)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Stats().Neighborhoods
	for i := 0; i < 500; i++ {
		if err := rel.Insert(geom.Point{X: 900 + float64(i%10), Y: 900}); err != nil {
			t.Fatal(err)
		}
	}
	if after := m.Stats().Neighborhoods; after != before {
		t.Fatalf("far insertions triggered %d recomputations", after-before)
	}
}

// TestTwoSelectMonitorMatchesConceptual drives random location updates and
// checks the maintained intersection against the from-scratch conceptual
// evaluation after every step.
func TestTwoSelectMonitorMatchesConceptual(t *testing.T) {
	rng := rand.New(rand.NewSource(1431))
	pts := testutil.UniformPoints(400, contBounds, 1432)
	live := append([]geom.Point{}, pts...)

	rel := newRelation(t, pts)
	f1 := geom.Point{X: 480, Y: 500}
	f2 := geom.Point{X: 530, Y: 470}
	k1, k2 := 10, 40
	tm, err := rel.MonitorTwoSelects(f1, k1, f2, k2)
	if err != nil {
		t.Fatal(err)
	}

	for step := 0; step < 250; step++ {
		// Moves concentrated around the focal points churn both answers.
		i := rng.Intn(len(live))
		from := live[i]
		to := geom.Point{X: 400 + rng.Float64()*250, Y: 400 + rng.Float64()*250}
		if err := rel.Move(from, to); err != nil {
			t.Fatal(err)
		}
		live[i] = to

		nbr1 := locality.NaiveKNN(live, f1, k1)
		nbr2 := locality.NaiveKNN(live, f2, k2)
		want := nbr1.Intersect(nbr2)
		got := tm.Current()
		if len(got) != len(want) {
			t.Fatalf("step %d: intersection %d points, recompute %d", step, len(got), len(want))
		}
		wantSet := make(map[geom.Point]struct{}, len(want))
		for _, p := range want {
			wantSet[p] = struct{}{}
		}
		for _, p := range got {
			if _, ok := wantSet[p]; !ok {
				t.Fatalf("step %d: maintained intersection holds %v, recompute does not", step, p)
			}
		}
	}
}

// TestTwoSelectMonitorEvents checks the intersection event stream replays
// to the final answer.
func TestTwoSelectMonitorEvents(t *testing.T) {
	pts := testutil.UniformPoints(300, contBounds, 1441)
	rel := newRelation(t, pts)
	tm, err := rel.MonitorTwoSelects(geom.Point{X: 500, Y: 500}, 8, geom.Point{X: 520, Y: 480}, 30)
	if err != nil {
		t.Fatal(err)
	}
	members := make(map[geom.Point]struct{})
	for _, p := range tm.Current() {
		members[p] = struct{}{}
	}
	if ev := tm.Drain(); len(ev) != 0 {
		t.Fatalf("priming must not emit events")
	}

	rng := rand.New(rand.NewSource(1442))
	for step := 0; step < 120; step++ {
		p := geom.Point{X: 450 + rng.Float64()*120, Y: 430 + rng.Float64()*120}
		if err := rel.Insert(p); err != nil {
			t.Fatal(err)
		}
		for _, ev := range tm.Drain() {
			if ev.Kind == continuous.Added {
				members[ev.Point] = struct{}{}
			} else {
				delete(members, ev.Point)
			}
		}
	}
	if len(members) != len(tm.Current()) {
		t.Fatalf("replay holds %d members, answer %d", len(members), len(tm.Current()))
	}
}

func TestRelationValidation(t *testing.T) {
	if _, err := continuous.NewRelation(geom.Rect{}, nil); err == nil {
		t.Errorf("zero bounds must error")
	}
	rel := newRelation(t, nil)
	if err := rel.Insert(geom.Point{X: math.NaN(), Y: 0}); err == nil {
		t.Errorf("inserting a NaN coordinate must error")
	}
	if rel.Remove(geom.Point{X: 1, Y: 1}) {
		t.Errorf("removing a missing point must report false")
	}
	if _, err := rel.MonitorSelect(geom.Point{}, 0); err == nil {
		t.Errorf("k=0 monitor must error")
	}
	if err := rel.Move(geom.Point{X: 1, Y: 1}, geom.Point{X: 2, Y: 2}); err == nil {
		t.Errorf("moving a missing point must error")
	}
}

func TestMonitorWithDuplicates(t *testing.T) {
	// Two instances at one coordinate inside the answer: removing one must
	// keep the answer unchanged; removing the second must evict it.
	pts := []geom.Point{{X: 10, Y: 10}, {X: 10, Y: 10}, {X: 90, Y: 90}, {X: 80, Y: 80}}
	rel := newRelation(t, pts)
	f := geom.Point{X: 0, Y: 0}
	m, err := rel.MonitorSelect(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Answer: the two duplicate instances at (10,10).
	if got := m.Current(); len(got) != 2 || got[0] != (geom.Point{X: 10, Y: 10}) {
		t.Fatalf("initial answer %v", got)
	}

	rel.Remove(geom.Point{X: 10, Y: 10})
	got := m.Current()
	if len(got) != 2 || got[0] != (geom.Point{X: 10, Y: 10}) || got[1] == (geom.Point{X: 10, Y: 10}) {
		t.Fatalf("after first removal: %v, want one (10,10) instance plus (80,80)", got)
	}

	rel.Remove(geom.Point{X: 10, Y: 10})
	got = m.Current()
	for _, p := range got {
		if p == (geom.Point{X: 10, Y: 10}) {
			t.Fatalf("after second removal the duplicate must be gone: %v", got)
		}
	}
}

func TestEventStringers(t *testing.T) {
	ev := continuous.Event{Kind: continuous.Added, Point: geom.Point{X: 1, Y: 2}}
	if ev.String() == "" || continuous.Removed.String() == "" {
		t.Errorf("stringers must not be empty")
	}
}
