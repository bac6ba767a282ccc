package twoknn_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	twoknn "repro"
	"repro/internal/testutil"
)

// TestPublicQueryAllocs pins the untraced hot path of the public entry
// points: planning a query — the plan value every entry point builds,
// executes and, only when asked, renders — must not cost the allocations
// the executor itself does not make. No options: no EXPLAIN, no stats.
//
// Each query is then measured once more, cold: after two garbage
// collections. It must cost what a warm query costs (within 2): a
// collection must not take away the relations' idle searcher handles and
// make the next query mint them again.
func TestPublicQueryAllocs(t *testing.T) {
	a := uniformRelation(t, "A", 2000, 1)
	b := uniformRelation(t, "B", 3000, 2)
	c := uniformRelation(t, "C", 2000, 3)
	f1, f2 := twoknn.Point{X: 500, Y: 500}, twoknn.Point{X: 520, Y: 470}
	focals, focals2 := make([]twoknn.Point, 64), make([]twoknn.Point, 64)
	for i := range focals {
		focals[i] = twoknn.Point{X: f1.X + float64(i%8)*40, Y: f1.Y + float64(i/8)*40}
		focals2[i] = twoknn.Point{X: focals[i].X + 20, Y: focals[i].Y - 30}
	}

	// The race detector's instrumentation changes the compiler's escape
	// decisions in the two multi-join bodies; these are their counts there.
	raceMax := map[string]float64{"UnchainedJoins": 58, "ChainedJoins": 78}

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
		{"SelectInnerJoin/block-marking", 28, func() error {
			_, err := twoknn.SelectInnerJoin(a, b, f1, 10, 10, twoknn.WithAlgorithm(twoknn.AlgorithmBlockMarking))
			return err
		}},
		{"KNNSelectBatch", 5, func() error { _, err := twoknn.KNNSelectBatch(b, focals, 10); return err }},
		{"TwoSelectsBatch", 71, func() error { _, err := twoknn.TwoSelectsBatch(b, focals, 10, focals2, 640); return err }},
		{"UnchainedJoins", 57, func() error { _, err := twoknn.UnchainedJoins(a, b, c, 2, 10); return err }},
		{"ChainedJoins", 75, func() error { _, err := twoknn.ChainedJoins(a, b, c, 4, 4); return err }},
	} {
		if err := q.run(); err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		bound := q.max
		if r, ok := raceMax[q.name]; ok && testutil.RaceEnabled {
			bound = r
		}
		got := testutil.AllocsPerRun(t, 50, func() { _ = q.run() })
		cold := coldAllocs(func() { _ = q.run() })
		t.Logf("%s: %v allocs/op (bound %v), %v cold", q.name, got, bound, cold)
		if got > bound {
			t.Errorf("%s: %v allocs/op, want ≤ %v", q.name, got, bound)
		}
		if cold > got+2 {
			t.Errorf("%s: %v allocs after two GCs, want ≤ %v (warm + 2)", q.name, cold, got+2)
		}
	}
}

// coldAllocs counts the allocations of one call of f made right after two
// garbage collections, with the collector paused during the call.
func coldAllocs(f func()) float64 {
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}
