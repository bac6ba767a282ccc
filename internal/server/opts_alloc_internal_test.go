package server

import (
	"context"
	"testing"

	twoknn "repro"
	"repro/internal/testutil"
)

// TestQueryOptsAllocs pins the per-request cost of assembling the engine
// options: the slice and one closure per option, and nothing for resolving
// the algorithm name — the common request names none and formats no error.
func TestQueryOptsAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates")
	}
	ctx := context.Background()
	var st twoknn.Stats
	for _, alg := range []string{"", "counting"} {
		c := &Common{Algorithm: alg}
		if got := testutil.AllocsPerRun(t, 100, func() { queryOpts(ctx, c, &st) }); got > 4 {
			t.Errorf("algorithm %q: %v allocs/op, want ≤ 4", alg, got)
		}
	}
}
