package kernel

import (
	"math"
	"math/rand"
	"os"
	"testing"
)

// spanKernels bundles one implementation's span forms so the equivalence
// matrix can run the exported wrappers and the raw assembly through one
// harness.
type spanKernels struct {
	name         string
	distSq       func(xs, ys []float64, off, n int, qx, qy float64, out []float64)
	countWithin  func(xs, ys []float64, off, n int, qx, qy, boundSq float64) int
	minDistSq    func(xs, ys []float64, off, n int, qx, qy float64) float64
	argMinDistSq func(xs, ys []float64, off, n int, qx, qy float64) int
	selectWithin func(xs, ys []float64, off, n int, qx, qy, boundSq float64, idx []int32) int
}

// exportedKernels runs the exported wrappers under whichever implementation
// is currently active.
var exportedKernels = &spanKernels{
	name:         "exported",
	distSq:       DistSqSpan,
	countWithin:  CountWithinSpan,
	minDistSq:    MinDistSqSpan,
	argMinDistSq: ArgMinDistSqSpan,
	selectWithin: SelectWithinSpan,
}

// refKernels is the scalar ground truth.
var refKernels = &spanKernels{
	name:         "scalar-ref",
	distSq:       distSqSpanRef,
	countWithin:  countWithinSpanRef,
	minDistSq:    minDistSqSpanRef,
	argMinDistSq: argMinDistSqSpanRef,
	selectWithin: selectWithinSpanRef,
}

// spanCase is one input to the cross-implementation matrix.
type spanCase struct {
	name            string
	xs, ys          []float64
	qx, qy, boundSq float64
}

// matrixCases builds the deterministic equivalence corpus: every span
// length 0..67 (covering all AVX2 remainder-lane shapes on both sides of
// the 4-lane groups and the minAVX2Lanes cutoff), with quantized
// coordinates so exact ties are exact, plus NaN/Inf injections and
// tie-on-bound thresholds.
func matrixCases() []spanCase {
	rng := rand.New(rand.NewSource(42))
	var cases []spanCase
	for n := 0; n <= 67; n++ {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			// Quantized grid: squared distances are exactly representable,
			// so tie-on-bound and tie-on-min lanes really tie.
			xs[i] = float64(rng.Intn(256)) * 4
			ys[i] = float64(rng.Intn(256)) * 4
		}
		qx, qy := 512.0, 512.0
		cases = append(cases, spanCase{
			name: "quantized", xs: xs, ys: ys, qx: qx, qy: qy,
			boundSq: 300 * 300,
		})
		if n > 0 {
			// Exactly-tied bound: the threshold IS a lane's squared
			// distance; <= must admit it, < must not (min ties).
			mid := n / 2
			dx, dy := xs[mid]-qx, ys[mid]-qy
			cases = append(cases, spanCase{
				name: "tie-on-bound", xs: xs, ys: ys, qx: qx, qy: qy,
				boundSq: dx*dx + dy*dy,
			})
		}
		if n > 2 {
			// Non-finite lanes: NaN and ±Inf coordinates must never
			// qualify against a bound, never win a min, and produce
			// bit-identical DistSq lanes.
			xs2 := append([]float64(nil), xs...)
			ys2 := append([]float64(nil), ys...)
			xs2[0] = math.NaN()
			ys2[1] = math.Inf(1)
			xs2[2] = math.Inf(-1)
			cases = append(cases, spanCase{
				name: "non-finite", xs: xs2, ys: ys2, qx: qx, qy: qy,
				boundSq: 300 * 300,
			})
		}
		if n > 0 && n%7 == 0 {
			// Non-finite query point and bound.
			cases = append(cases,
				spanCase{name: "nan-query", xs: xs, ys: ys, qx: math.NaN(), qy: qy, boundSq: 300 * 300},
				spanCase{name: "inf-bound", xs: xs, ys: ys, qx: qx, qy: qy, boundSq: math.Inf(1)},
				spanCase{name: "nan-bound", xs: xs, ys: ys, qx: qx, qy: qy, boundSq: math.NaN()},
			)
		}
	}
	// Co-located duplicates: every lane ties on min and on bound.
	dup := spanCase{name: "all-duplicates", qx: 0, qy: 0, boundSq: 2 * 128 * 128}
	for i := 0; i < 37; i++ {
		dup.xs = append(dup.xs, 128)
		dup.ys = append(dup.ys, 128)
	}
	return append(cases, dup)
}

// assertKernelsMatch runs got against want (the scalar reference) on one
// case and fails on any bit-level divergence.
func assertKernelsMatch(t *testing.T, got, want *spanKernels, c spanCase) {
	t.Helper()
	n := len(c.xs)

	wantOut := make([]float64, n)
	gotOut := make([]float64, n)
	want.distSq(c.xs, c.ys, 0, n, c.qx, c.qy, wantOut)
	got.distSq(c.xs, c.ys, 0, n, c.qx, c.qy, gotOut)
	for i := range wantOut {
		if math.Float64bits(wantOut[i]) != math.Float64bits(gotOut[i]) {
			t.Fatalf("%s vs %s: DistSq[%d] = %v, want %v (case %s, n=%d)",
				got.name, want.name, i, gotOut[i], wantOut[i], c.name, n)
		}
	}

	if g, w := got.countWithin(c.xs, c.ys, 0, n, c.qx, c.qy, c.boundSq),
		want.countWithin(c.xs, c.ys, 0, n, c.qx, c.qy, c.boundSq); g != w {
		t.Fatalf("%s: CountWithin = %d, want %d (case %s, n=%d)", got.name, g, w, c.name, n)
	}

	if g, w := got.minDistSq(c.xs, c.ys, 0, n, c.qx, c.qy),
		want.minDistSq(c.xs, c.ys, 0, n, c.qx, c.qy); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: MinDistSq = %v, want %v (case %s, n=%d)", got.name, g, w, c.name, n)
	}

	if g, w := got.argMinDistSq(c.xs, c.ys, 0, n, c.qx, c.qy),
		want.argMinDistSq(c.xs, c.ys, 0, n, c.qx, c.qy); g != w {
		t.Fatalf("%s: ArgMinDistSq = %d, want %d (case %s, n=%d)", got.name, g, w, c.name, n)
	}

	wantIdx := make([]int32, n)
	gotIdx := make([]int32, n)
	gm := got.selectWithin(c.xs, c.ys, 0, n, c.qx, c.qy, c.boundSq, gotIdx)
	wm := want.selectWithin(c.xs, c.ys, 0, n, c.qx, c.qy, c.boundSq, wantIdx)
	if gm != wm {
		t.Fatalf("%s: SelectWithin count = %d, want %d (case %s, n=%d)", got.name, gm, wm, c.name, n)
	}
	for i := 0; i < wm; i++ {
		if gotIdx[i] != wantIdx[i] {
			t.Fatalf("%s: SelectWithin idx[%d] = %d, want %d (case %s, n=%d)",
				got.name, i, gotIdx[i], wantIdx[i], c.name, n)
		}
	}
}

// TestKernelEquivalenceMatrix checks every available implementation — via
// the exported wrappers, for each name Use can dispatch — against the
// scalar reference, bit-for-bit, on the deterministic corpus.
func TestKernelEquivalenceMatrix(t *testing.T) {
	cases := matrixCases()
	for _, name := range Available() {
		t.Run(name, func(t *testing.T) {
			restore, err := Use(name)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			for _, c := range cases {
				assertKernelsMatch(t, exportedKernels, refKernels, c)
			}
		})
	}
}

// TestAVX2RemainderLanes drives the assembly helpers directly (bypassing
// the minAVX2Lanes dispatch cutoff) so every 1..67-lane shape — 4-lane
// groups plus 0..3 scalar-tail remainders — hits the vector code.
func TestAVX2RemainderLanes(t *testing.T) {
	if asmForTest == nil {
		t.Skip("no assembly in this build")
	}
	for _, c := range matrixCases() {
		if len(c.xs) == 0 {
			continue // dispatchers guarantee the asm non-empty spans
		}
		assertKernelsMatch(t, asmForTest, refKernels, c)
	}
}

// TestSpanOffsets checks that the (off, n) span forms window correctly into
// longer columns, including unaligned offsets.
func TestSpanOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	total := 131
	xs := make([]float64, total)
	ys := make([]float64, total)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
		ys[i] = rng.Float64() * 1000
	}
	for _, off := range []int{0, 1, 3, 64, 130} {
		for _, n := range []int{0, 1, 33, 67} {
			if off+n > total {
				continue
			}
			want := countWithinSpanRef(xs, ys, off, n, 500, 500, 200*200)
			if got := CountWithinSpan(xs, ys, off, n, 500, 500, 200*200); got != want {
				t.Fatalf("CountWithinSpan(off=%d, n=%d) = %d, want %d", off, n, got, want)
			}
			wantMin := minDistSqSpanRef(xs, ys, off, n, 500, 500)
			if got := MinDistSqSpan(xs, ys, off, n, 500, 500); math.Float64bits(got) != math.Float64bits(wantMin) {
				t.Fatalf("MinDistSqSpan(off=%d, n=%d) = %v, want %v", off, n, got, wantMin)
			}
		}
	}
}

// TestScalarSemantics pins the reference behaviors the package documents.
func TestScalarSemantics(t *testing.T) {
	if got := MinDistSq(nil, nil, 0, 0); !math.IsInf(got, 1) {
		t.Errorf("MinDistSq(empty) = %v, want +Inf", got)
	}
	if got := ArgMinDistSq(nil, nil, 0, 0); got != -1 {
		t.Errorf("ArgMinDistSq(empty) = %d, want -1", got)
	}
	// All-NaN span: no lane compares below +Inf.
	nan := []float64{math.NaN(), math.NaN(), math.NaN()}
	zeros := []float64{0, 0, 0}
	if got := ArgMinDistSq(nan, zeros, 0, 0); got != -1 {
		t.Errorf("ArgMinDistSq(all-NaN) = %d, want -1", got)
	}
	if got := CountWithin(nan, zeros, 0, 0, math.Inf(1)); got != 0 {
		t.Errorf("CountWithin(all-NaN, +Inf bound) = %d, want 0 (NaN never qualifies)", got)
	}
	// First-index tie rule: two lanes at the same minimum distance.
	xs := []float64{3, 5, 3, 4}
	ys := []float64{4, 12, 4, 3}
	if got := ArgMinDistSq(xs, ys, 0, 0); got != 0 {
		t.Errorf("ArgMinDistSq(tie) = %d, want 0 (first index wins)", got)
	}
}

// TestUse checks the runtime dispatch switch and its restore function.
func TestUse(t *testing.T) {
	if _, err := Use("no-such-kernel"); err == nil {
		t.Fatal("Use(no-such-kernel) succeeded, want error")
	}
	orig := Active()
	restore, err := Use("scalar")
	if err != nil {
		t.Fatal(err)
	}
	if Active() != "scalar" {
		t.Fatalf("Active() = %q after Use(scalar)", Active())
	}
	if BatchGrain() <= 0 {
		t.Fatalf("BatchGrain() = %d, want positive", BatchGrain())
	}
	restore()
	if Active() != orig {
		t.Fatalf("Active() = %q after restore, want %q", Active(), orig)
	}
}

// TestDispatchExpectation asserts the dispatched implementation matches the
// KNN_EXPECT_KERNEL environment variable when set. CI's amd64 leg exports
// KNN_EXPECT_KERNEL=avx2 so a silently broken feature probe (or a build
// that quietly dropped the assembly) fails loudly instead of shipping the
// scalar path.
func TestDispatchExpectation(t *testing.T) {
	want := os.Getenv("KNN_EXPECT_KERNEL")
	if want == "" {
		t.Skipf("KNN_EXPECT_KERNEL unset; active=%s features=%s", Active(), CPUFeatures())
	}
	if Active() != want {
		t.Fatalf("dispatched kernel = %q, want %q (features: %s, available: %v)",
			Active(), want, CPUFeatures(), Available())
	}
}

// FuzzKernelEquivalence cross-checks the active fast path (and the raw
// assembly, where built) against the scalar reference on fuzzer-chosen
// spans, coordinates and bounds. Coordinates are quantized byte pairs — the
// same scheme as the repository's query-level fuzz targets — so exact ties
// occur constantly; the raw float query point and bound explore the
// non-finite space.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte("spatial queries with two knn predicates"), 512.0, 512.0, 90000.0)
	f.Add([]byte{10, 10, 10, 10, 10, 10}, 40.0, 40.0, 0.0)
	// Tie-on-bound seed: point (40, 40) at exactly dSq = 3200 from (0, 0).
	f.Add([]byte{10, 10, 20, 20, 30, 30}, 0.0, 0.0, 3200.0)
	f.Fuzz(func(t *testing.T, data []byte, qx, qy, boundSq float64) {
		n := len(data) / 2
		if n > 96 {
			n = 96
		}
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = float64(data[2*i]) * 4
			ys[i] = float64(data[2*i+1]) * 4
		}
		c := spanCase{name: "fuzz", xs: xs, ys: ys, qx: qx, qy: qy, boundSq: boundSq}
		for _, name := range Available() {
			restore, err := Use(name)
			if err != nil {
				t.Fatal(err)
			}
			assertKernelsMatch(t, exportedKernels, refKernels, c)
			restore()
		}
		if asmForTest != nil && n > 0 {
			assertKernelsMatch(t, asmForTest, refKernels, c)
		}
	})
}
