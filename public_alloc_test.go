package twoknn_test

import (
	"testing"

	twoknn "repro"
	"repro/internal/testutil"
)

// TestPublicQueryAllocs pins the untraced hot path of the public entry
// points: planning a query — the plan value every entry point builds,
// executes and, only when asked, renders — must not cost the allocations
// the executor itself does not make. No options: no EXPLAIN, no stats.
func TestPublicQueryAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's sync.Pool instrumentation allocates")
	}
	a := uniformRelation(t, "A", 2000, 1)
	b := uniformRelation(t, "B", 3000, 2)
	c := uniformRelation(t, "C", 2000, 3)
	f1, f2 := twoknn.Point{X: 500, Y: 500}, twoknn.Point{X: 520, Y: 470}
	focals, focals2 := make([]twoknn.Point, 64), make([]twoknn.Point, 64)
	for i := range focals {
		focals[i] = twoknn.Point{X: f1.X + float64(i%8)*40, Y: f1.Y + float64(i/8)*40}
		focals2[i] = twoknn.Point{X: focals[i].X + 20, Y: focals[i].Y - 30}
	}

	for _, q := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"KNNSelect", 3, func() error { _, err := twoknn.KNNSelect(b, f1, 10); return err }},
		{"TwoSelects", 5, func() error { _, err := twoknn.TwoSelects(b, f1, 10, f2, 640); return err }},
		{"SelectOuterJoin", 13, func() error { _, err := twoknn.SelectOuterJoin(a, b, f1, 10, 10); return err }},
		{"KNNJoin", 12, func() error { _, err := twoknn.KNNJoin(c, b, 5); return err }},
		{"SelectInnerJoin", 28, func() error { _, err := twoknn.SelectInnerJoin(a, b, f1, 10, 10); return err }},
		{"KNNSelectBatch", 5, func() error { _, err := twoknn.KNNSelectBatch(b, focals, 10); return err }},
		{"TwoSelectsBatch", 71, func() error { _, err := twoknn.TwoSelectsBatch(b, focals, 10, focals2, 640); return err }},
		{"UnchainedJoins", 60, func() error { _, err := twoknn.UnchainedJoins(a, b, c, 2, 10); return err }},
		{"ChainedJoins", 80, func() error { _, err := twoknn.ChainedJoins(a, b, c, 4, 4); return err }},
	} {
		if err := q.run(); err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if got := testing.AllocsPerRun(50, func() { _ = q.run() }); got > q.max {
			t.Errorf("%s: %v allocs/op, want ≤ %v", q.name, got, q.max)
		} else {
			t.Logf("%s: %v allocs/op (bound %v)", q.name, got, q.max)
		}
	}
}
