package twoknn_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	twoknn "repro"
	"repro/internal/kernel"
)

// Differential battery for the batched entry points: KNNSelectBatch and
// TwoSelectsBatch must be byte-identical to the sequential per-query loop
// across every index kind, both shard layouts and every available distance
// kernel — the full matrix the acceptance criteria name.

// batchTestFocals mixes clustered, uniform, duplicate and out-of-bounds
// focal points.
func batchTestFocals(n int, seed int64) []twoknn.Point {
	rng := rand.New(rand.NewSource(seed))
	focals := make([]twoknn.Point, n)
	for i := range focals {
		switch i % 4 {
		case 0:
			focals[i] = twoknn.Point{X: 512 + rng.NormFloat64()*25, Y: 512 + rng.NormFloat64()*25}
		case 1:
			focals[i] = twoknn.Point{X: rng.Float64() * 1024, Y: rng.Float64() * 1024}
		case 2:
			focals[i] = focals[rng.Intn(i)]
		default:
			focals[i] = twoknn.Point{X: -100 + rng.Float64()*1300, Y: -100 + rng.Float64()*1300}
		}
	}
	return focals
}

// TestKNNSelectBatchDifferentialMatrix: batch vs sequential loop over
// 4 index kinds × hash/spatial sharding × every kernel.
func TestKNNSelectBatchDifferentialMatrix(t *testing.T) {
	pts := clusteredTestPoints(1400, 5)
	srcs := kernelEquivSources(t, "batch-matrix", pts)
	focals := batchTestFocals(70, 11)
	for backing, src := range srcs {
		t.Run(backing, func(t *testing.T) {
			for _, kname := range kernel.Available() {
				restore, err := kernel.Use(kname)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 13} {
					var batchSt, seqSt twoknn.Stats
					got, err := twoknn.KNNSelectBatch(src, focals, k, twoknn.WithStats(&batchSt))
					if err != nil {
						t.Fatalf("kernel %s k=%d: %v", kname, k, err)
					}
					for i, f := range focals {
						want, err := twoknn.KNNSelect(src, f, k, twoknn.WithStats(&seqSt))
						if err != nil {
							t.Fatalf("sequential: %v", err)
						}
						if !reflect.DeepEqual(got[i], want) {
							t.Fatalf("kernel %s k=%d focal %d %v:\n batch %v\n  seq  %v",
								kname, k, i, f, got[i], want)
						}
					}
					// A batch costs what its selects cost: every field,
					// blocks and shard probes included.
					if b, s := batchSt.Snapshot(), seqSt.Snapshot(); b != s {
						t.Fatalf("kernel %s k=%d: batch counters %+v, per-focal selects %+v", kname, k, b, s)
					}
				}
				restore()
			}
		})
	}
}

// TestTwoSelectsBatchDifferentialMatrix: both algorithms, batch vs the
// sequential TwoSelects loop, over the same source matrix.
func TestTwoSelectsBatchDifferentialMatrix(t *testing.T) {
	pts := clusteredTestPoints(1100, 6)
	srcs := kernelEquivSources(t, "two-batch-matrix", pts)
	f1s := batchTestFocals(40, 21)
	f2s := batchTestFocals(40, 22)
	for backing, src := range srcs {
		t.Run(backing, func(t *testing.T) {
			for _, alg := range []twoknn.Algorithm{twoknn.AlgorithmCounting, twoknn.AlgorithmConceptual} {
				// k1 > k2 exercises the swap; Counting selects the default
				// optimized two-select plan here.
				var batchSt, seqSt twoknn.Stats
				got, err := twoknn.TwoSelectsBatch(src, f1s, 17, f2s, 5, twoknn.WithAlgorithm(alg), twoknn.WithStats(&batchSt))
				if err != nil {
					t.Fatal(err)
				}
				for i := range f1s {
					want, err := twoknn.TwoSelects(src, f1s[i], 17, f2s[i], 5, twoknn.WithAlgorithm(alg), twoknn.WithStats(&seqSt))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got[i], want) {
						t.Fatalf("alg %v pair %d:\n batch %v\n  seq  %v", alg, i, got[i], want)
					}
				}
				if b, s := batchSt.Snapshot(), seqSt.Snapshot(); b != s {
					t.Fatalf("alg %v: batch counters %+v, per-pair selects %+v", alg, b, s)
				}
			}
		})
	}
}

// TestBatchArgValidation covers the error and edge contract.
func TestBatchArgValidation(t *testing.T) {
	rel, err := twoknn.NewRelation("args", clusteredTestPoints(100, 7))
	if err != nil {
		t.Fatal(err)
	}
	focals := batchTestFocals(3, 31)

	if _, err := twoknn.KNNSelectBatch(nil, focals, 5); !errors.Is(err, twoknn.ErrNilRelation) {
		t.Fatalf("nil source: %v", err)
	}
	if _, err := twoknn.KNNSelectBatch(rel, focals, 0); !errors.Is(err, twoknn.ErrNonPositiveK) {
		t.Fatalf("k=0: %v", err)
	}
	if _, err := twoknn.TwoSelectsBatch(rel, focals, 3, focals[:2], 3); err == nil {
		t.Fatal("length mismatch accepted")
	}
	out, err := twoknn.KNNSelectBatch(rel, nil, 5)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty focals: %v %v", out, err)
	}

	var st twoknn.Stats
	var explain string
	if _, err := twoknn.KNNSelectBatch(rel, focals, 5, twoknn.WithStats(&st), twoknn.WithExplain(&explain)); err != nil {
		t.Fatal(err)
	}
	if st.Neighborhoods == 0 || st.PointsCompared == 0 {
		t.Fatalf("stats did not move: %+v", st)
	}
	// EXPLAIN names what ran: the searcher focal by focal on one probe, on a
	// relation and on an in-process group alike.
	const focalByFocal = "sequential searcher focal by focal on one probe"
	if !strings.Contains(explain, focalByFocal) || strings.Contains(explain, "shard") {
		t.Fatalf("single-relation batch explain:\n%s", explain)
	}
	sh, err := twoknn.NewShardedRelation("args-sh", clusteredTestPoints(100, 7), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := twoknn.TwoSelectsBatch(sh, focals, 3, focals, 5, twoknn.WithExplain(&explain)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{focalByFocal, "args-sh: 100 points, 2 hash shard(s)"} {
		if !strings.Contains(explain, want) {
			t.Fatalf("sharded batch explain missing %q:\n%s", want, explain)
		}
	}
	if _, err := twoknn.TwoSelectsBatch(rel, focals, 3, focals, 5, twoknn.WithExplain(&explain)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, focalByFocal) {
		t.Fatalf("single-relation two-selects batch explain:\n%s", explain)
	}
}

// TestRelationEpoch covers the Epoch/Invalidate hook on both source kinds.
func TestRelationEpoch(t *testing.T) {
	pts := clusteredTestPoints(64, 8)
	rel, err := twoknn.NewRelation("epoch", pts)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Epoch() == 0 {
		t.Fatal("epoch must start nonzero")
	}
	before := rel.Epoch()
	rel.Invalidate()
	if rel.Epoch() != before+1 {
		t.Fatalf("Invalidate: epoch %d -> %d", before, rel.Epoch())
	}
	if clone := rel.Clone(); clone.Epoch() != rel.Epoch() {
		t.Fatal("clone must share the epoch")
	}
	sh, err := twoknn.NewShardedRelation("epoch-sh", pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	before = sh.Epoch()
	sh.Invalidate()
	if sh.Epoch() != before+1 {
		t.Fatalf("sharded Invalidate: epoch %d -> %d", before, sh.Epoch())
	}
}

func ExampleKNNSelectBatch() {
	pts := []twoknn.Point{
		{X: 1, Y: 1}, {X: 2, Y: 2}, {X: 9, Y: 9}, {X: 1, Y: 2}, {X: 8, Y: 8},
	}
	rel, _ := twoknn.NewRelation("stations", pts)
	results, _ := rel.KNNSelectBatch([]twoknn.Point{{X: 0, Y: 0}, {X: 10, Y: 10}}, 2)
	for i, res := range results {
		fmt.Printf("focal %d: %v\n", i, res)
	}
	// Output:
	// focal 0: [(1, 1) (1, 2)]
	// focal 1: [(9, 9) (8, 8)]
}
