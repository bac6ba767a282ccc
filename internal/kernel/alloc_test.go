package kernel_test

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/testutil"
)

// TestKernelAllocs: every kernel must be allocation-free — they sit inside
// the 0 allocs/op query hot path.
func TestKernelAllocs(t *testing.T) {
	xs := make([]float64, 64)
	ys := make([]float64, 64)
	out := make([]float64, 64)
	idx := make([]int32, 64)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(64 - i)
	}
	for _, name := range kernel.Available() {
		t.Run(name, func(t *testing.T) {
			restore, err := kernel.Use(name)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			sink := 0.0
			avg := testutil.AllocsPerRun(t, 200, func() {
				kernel.DistSq(xs, ys, 32, 32, out)
				sink += float64(kernel.CountWithin(xs, ys, 32, 32, 1000))
				sink += kernel.MinDistSq(xs, ys, 32, 32)
				sink += float64(kernel.ArgMinDistSq(xs, ys, 32, 32))
				sink += float64(kernel.SelectWithin(xs, ys, 32, 32, 1000, idx))
			})
			if avg != 0 {
				t.Errorf("%s kernels allocate %v per run, want 0", name, avg)
			}
			_ = sink
		})
	}
}
