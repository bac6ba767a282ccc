package twoknn_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	twoknn "repro"
)

// This file pins what EXPLAIN prints. The golden file holds one entry per
// entry point (batch ones included) × the option values
// options_matrix_test.go crosses × {single, hash-3, spatial-2, 3-shard
// loopback remote}, on the golden clustered A/B/C. Regenerate (only when an
// EXPLAIN line is meant to change) with
//
//	go test -run TestExplainGolden -update .

const explainGoldenPath = "testdata/explain_golden.txt"

// explainBattery renders every entry point's EXPLAIN over every backing, one
// "=== backing/entry[/option]" header per entry.
func explainBattery(t *testing.T) string {
	t.Helper()
	ptsA, ptsB, ptsC, _, _ := goldenPoints(t)
	near := ptsA[0]
	focal := twoknn.Point{X: near.X + 7, Y: near.Y - 5}
	focal2 := twoknn.Point{X: near.X + 40, Y: near.Y + 25}
	rng := twoknn.NewRect(near.X-60, near.Y-80, near.X+50, near.Y+40)
	focals, focals2 := []twoknn.Point{focal, focal2}, []twoknn.Point{focal2, focal}

	algorithms := []struct {
		name string
		opts []twoknn.QueryOption
	}{
		{"conceptual", []twoknn.QueryOption{twoknn.WithAlgorithm(twoknn.AlgorithmConceptual)}},
		{"counting", []twoknn.QueryOption{twoknn.WithAlgorithm(twoknn.AlgorithmCounting)}},
		{"block-marking", []twoknn.QueryOption{twoknn.WithAlgorithm(twoknn.AlgorithmBlockMarking)}},
		{"block-marking-exhaustive", []twoknn.QueryOption{twoknn.WithAlgorithm(twoknn.AlgorithmBlockMarking), twoknn.WithExhaustivePreprocessing()}},
		{"auto", nil},
	}

	var sb strings.Builder
	for _, bk := range matrixBackings()[:4] {
		a, b, c := bk.build(t, "A", ptsA, false), bk.build(t, "B", ptsB, true), bk.build(t, "C", ptsC, true)
		record := func(entry string, opts []twoknn.QueryOption, eval func(opts ...twoknn.QueryOption) error) {
			t.Helper()
			var explain string
			if err := eval(append(opts[:len(opts):len(opts)], twoknn.WithExplain(&explain))...); err != nil {
				t.Fatalf("%s/%s: %v", bk.name, entry, err)
			}
			fmt.Fprintf(&sb, "=== %s/%s\n%s", bk.name, entry, explain)
		}
		discard := func(_ any, err error) error { return err }

		record("knn-select", nil, func(opts ...twoknn.QueryOption) error {
			return discard(twoknn.KNNSelect(b, focal, goldenKSel, opts...))
		})
		record("knn-join", nil, func(opts ...twoknn.QueryOption) error {
			return discard(twoknn.KNNJoin(a, b, goldenKJoin, opts...))
		})
		record("select-outer-join", nil, func(opts ...twoknn.QueryOption) error {
			return discard(twoknn.SelectOuterJoin(a, b, focal, goldenKSel, goldenKJoin, opts...))
		})
		record("knn-select-batch", nil, func(opts ...twoknn.QueryOption) error {
			return discard(twoknn.KNNSelectBatch(b, focals, goldenKSel, opts...))
		})
		for _, alg := range algorithms {
			record("select-inner-join/"+alg.name, alg.opts, func(opts ...twoknn.QueryOption) error {
				return discard(twoknn.SelectInnerJoin(a, b, focal, goldenKJoin, goldenKSel, opts...))
			})
			record("range-inner-join/"+alg.name, alg.opts, func(opts ...twoknn.QueryOption) error {
				return discard(twoknn.RangeInnerJoin(a, b, rng, goldenKJoin, opts...))
			})
			record("two-selects/"+alg.name, alg.opts, func(opts ...twoknn.QueryOption) error {
				return discard(twoknn.TwoSelects(b, focal, goldenKSel, focal2, goldenK2, opts...))
			})
			record("two-selects-batch/"+alg.name, alg.opts, func(opts ...twoknn.QueryOption) error {
				return discard(twoknn.TwoSelectsBatch(b, focals, goldenKSel, focals2, goldenK2, opts...))
			})
		}
		for _, order := range []twoknn.JoinOrder{twoknn.OrderAuto, twoknn.OrderABFirst, twoknn.OrderCBFirst} {
			record("unchained/"+order.String(), []twoknn.QueryOption{twoknn.WithJoinOrder(order)}, func(opts ...twoknn.QueryOption) error {
				return discard(twoknn.UnchainedJoins(a, b, c, goldenKJoin, goldenKJoin, opts...))
			})
		}
		for _, qep := range []twoknn.ChainedQEP{twoknn.ChainedAuto, twoknn.ChainedRightDeep, twoknn.ChainedJoinIntersection,
			twoknn.ChainedNestedJoin, twoknn.ChainedNestedJoinCached} {
			record("chained/"+qep.String(), []twoknn.QueryOption{twoknn.WithChainedQEP(qep)}, func(opts ...twoknn.QueryOption) error {
				return discard(twoknn.ChainedJoins(a, b, c, goldenKJoin, goldenKJoin, opts...))
			})
		}
	}
	return sb.String()
}

// splitExplains indexes a battery rendering by its entry headers.
func splitExplains(s string) (names []string, bodies map[string]string) {
	bodies = make(map[string]string)
	for _, chunk := range strings.Split(s, "=== ")[1:] {
		name, body, _ := strings.Cut(chunk, "\n")
		names = append(names, name)
		bodies[name] = body
	}
	return names, bodies
}

func TestExplainGolden(t *testing.T) {
	got := explainBattery(t)
	if *updateGolden {
		if err := os.WriteFile(explainGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", explainGoldenPath)
		return
	}
	data, err := os.ReadFile(explainGoldenPath)
	if err != nil {
		t.Fatalf("reading golden file (generate with -update): %v", err)
	}
	wantNames, want := splitExplains(string(data))
	gotNames, gotBodies := splitExplains(got)
	if len(gotNames) != len(wantNames) {
		t.Errorf("battery produced %d entries, golden file holds %d", len(gotNames), len(wantNames))
	}
	for _, name := range wantNames {
		if g, ok := gotBodies[name]; !ok {
			t.Errorf("%s: in the golden file but not produced", name)
		} else if g != want[name] {
			t.Errorf("%s:\n--- got\n%s--- want\n%s", name, g, want[name])
		}
	}
}

// TestKNNSelectAndJoinExplain: WithExplain stores a rendering of the plan
// that ran on the single-predicate entry points too — a scan under the
// kNN-select or kNN-join with its k, plus the operand lines when an operand
// is sharded.
func TestKNNSelectAndJoinExplain(t *testing.T) {
	a := uniformRelation(t, "stations", 200, 71)
	b := uniformRelation(t, "taxis", 300, 72)
	sb, err := twoknn.NewShardedRelation("fleet", b.Points(), 3)
	if err != nil {
		t.Fatal(err)
	}
	f := twoknn.Point{X: 400, Y: 600}
	for _, inner := range []twoknn.Source{b, sb} {
		sharded := inner != twoknn.Source(b)
		var sel, join string
		if _, err := twoknn.KNNSelect(inner, f, 5, twoknn.WithExplain(&sel)); err != nil {
			t.Fatal(err)
		}
		if _, err := twoknn.KNNJoin(a, inner, 3, twoknn.WithExplain(&join)); err != nil {
			t.Fatal(err)
		}
		scan := fmt.Sprintf("scan [%s (300 points)]", inner.Name())
		for _, c := range []struct {
			explain string
			want    []string
		}{
			{sel, []string{"kNN-select [k=5]", scan}},
			{join, []string{"kNN-join [k=3]", "scan [stations (200 points)]", scan}},
		} {
			for _, want := range c.want {
				if !strings.Contains(c.explain, want) {
					t.Errorf("explain missing %q:\n%s", want, c.explain)
				}
			}
			if gathered := strings.Contains(c.explain, "scatter/gather"); gathered != sharded {
				t.Errorf("operand lines present = %v, want %v:\n%s", gathered, sharded, c.explain)
			}
		}
	}
}
