package twoknn_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	twoknn "repro"
	"repro/internal/datagen"
)

// This file pins the engine's observable behaviour — rows in emitted order
// and the full operation-counter snapshot — for every algorithm on every
// index kind, at the default (sequential, workers = 1) execution. The golden
// file was generated at the commit before the sequential/*Parallel/range
// twins were folded into one body per algorithm, and is driven only through
// the public API, so it keeps holding the folded bodies to what the
// hand-written sequential loops produced: "parallel equals sequential"
// cannot, once both are the same code.
//
// Regenerate (only when an intended behaviour change lands) with
//
//	go test -run TestGoldenDigests -update .

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files (golden_digests.json, explain_golden.txt) from the current engine")

const goldenPath = "testdata/golden_digests.json"

// goldenDigest is one query's pinned outcome.
type goldenDigest struct {
	Rows     int          `json:"rows"`
	FNV      string       `json:"fnv64a"`
	Counters twoknn.Stats `json:"counters"`
}

// digestRows hashes result rows in order: every coordinate's IEEE-754 bits,
// little endian, through FNV-64a.
func digestRows(rows int, coords []float64, st *twoknn.Stats) goldenDigest {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range coords {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return goldenDigest{Rows: rows, FNV: fmt.Sprintf("%016x", h.Sum64()), Counters: st.Snapshot()}
}

func digestPoints(ps []twoknn.Point, st *twoknn.Stats) goldenDigest {
	coords := make([]float64, 0, 2*len(ps))
	for _, p := range ps {
		coords = append(coords, p.X, p.Y)
	}
	return digestRows(len(ps), coords, st)
}

func digestPairs(ps []twoknn.Pair, st *twoknn.Stats) goldenDigest {
	coords := make([]float64, 0, 4*len(ps))
	for _, p := range ps {
		coords = append(coords, p.Left.X, p.Left.Y, p.Right.X, p.Right.Y)
	}
	return digestRows(len(ps), coords, st)
}

func digestTriples(ts []twoknn.Triple, st *twoknn.Stats) goldenDigest {
	coords := make([]float64, 0, 6*len(ts))
	for _, tr := range ts {
		coords = append(coords, tr.A.X, tr.A.Y, tr.B.X, tr.B.Y, tr.C.X, tr.C.Y)
	}
	return digestRows(len(ts), coords, st)
}

var goldenBounds = twoknn.NewRect(0, 0, 1000, 1000)

const (
	goldenKJoin = 4
	goldenKSel  = 12
	goldenK2    = 60
)

// goldenPoints returns the fixed-seed inputs: a clustered A and C around a
// uniform B (so Counting skips tuples, Block-Marking prunes blocks and the
// chained cache hits), plus uniform stand-ins for A and C under which the
// join-order optimizer falls back to the conceptual unchained plan.
func goldenPoints(t *testing.T) (a, b, c, ua, uc []twoknn.Point) {
	t.Helper()
	clustered := func(seed int64, clusters, per int) []twoknn.Point {
		pts, err := datagen.Clustered(datagen.ClusterConfig{
			NumClusters: clusters, PointsPerCluster: per, Radius: 45, Bounds: goldenBounds, Seed: seed,
		})
		if err != nil {
			t.Fatalf("datagen.Clustered: %v", err)
		}
		return pts
	}
	return clustered(7101, 5, 100), datagen.Uniform(1500, goldenBounds, 7102), clustered(7103, 4, 100),
		datagen.Uniform(300, goldenBounds, 7104), datagen.Uniform(250, goldenBounds, 7105)
}

// goldenBattery runs every algorithm over the given operands and records one
// digest per query under prefix. a, b, c are the clustered/uniform/clustered
// operands; ua, uc the uniform stand-ins.
func goldenBattery(t *testing.T, out map[string]goldenDigest, prefix string, near twoknn.Point, a, b, c, ua, uc twoknn.Source) {
	t.Helper()
	// The selections sit on one cluster of A: its tuples join into the
	// selected region, every other cluster is there to be pruned.
	focal := twoknn.Point{X: near.X + 7, Y: near.Y - 5}
	focal2 := twoknn.Point{X: near.X + 40, Y: near.Y + 25}
	rng := twoknn.NewRect(near.X-60, near.Y-80, near.X+50, near.Y+40)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", prefix, err)
		}
	}
	points := func(name string, run func(st *twoknn.Stats) ([]twoknn.Point, error)) {
		t.Helper()
		var st twoknn.Stats
		rows, err := run(&st)
		must(err)
		out[prefix+"/"+name] = digestPoints(rows, &st)
	}
	pairs := func(name string, run func(st *twoknn.Stats) ([]twoknn.Pair, error)) {
		t.Helper()
		var st twoknn.Stats
		rows, err := run(&st)
		must(err)
		out[prefix+"/"+name] = digestPairs(rows, &st)
	}
	triples := func(name string, run func(st *twoknn.Stats) ([]twoknn.Triple, error)) {
		t.Helper()
		var st twoknn.Stats
		rows, err := run(&st)
		must(err)
		out[prefix+"/"+name] = digestTriples(rows, &st)
	}

	points("knn-select", func(st *twoknn.Stats) ([]twoknn.Point, error) {
		return twoknn.KNNSelect(b, focal, goldenKSel, twoknn.WithStats(st))
	})
	pairs("knn-join", func(st *twoknn.Stats) ([]twoknn.Pair, error) {
		return twoknn.KNNJoin(a, b, goldenKJoin, twoknn.WithStats(st))
	})
	pairs("select-outer-join", func(st *twoknn.Stats) ([]twoknn.Pair, error) {
		return twoknn.SelectOuterJoin(a, b, focal, goldenKSel, goldenKJoin, twoknn.WithStats(st))
	})

	algs := []struct {
		name string
		opts []twoknn.QueryOption
	}{
		{"conceptual", []twoknn.QueryOption{twoknn.WithAlgorithm(twoknn.AlgorithmConceptual)}},
		{"counting", []twoknn.QueryOption{twoknn.WithAlgorithm(twoknn.AlgorithmCounting)}},
		{"block-marking", []twoknn.QueryOption{twoknn.WithAlgorithm(twoknn.AlgorithmBlockMarking)}},
		{"block-marking-exhaustive", []twoknn.QueryOption{twoknn.WithAlgorithm(twoknn.AlgorithmBlockMarking), twoknn.WithExhaustivePreprocessing()}},
		{"auto", nil},
	}
	for _, alg := range algs {
		alg := alg
		pairs("select-inner-join/"+alg.name, func(st *twoknn.Stats) ([]twoknn.Pair, error) {
			return twoknn.SelectInnerJoin(a, b, focal, goldenKJoin, goldenKSel, append(alg.opts, twoknn.WithStats(st))...)
		})
		pairs("range-inner-join/"+alg.name, func(st *twoknn.Stats) ([]twoknn.Pair, error) {
			return twoknn.RangeInnerJoin(a, b, rng, goldenKJoin, append(alg.opts, twoknn.WithStats(st))...)
		})
	}

	for _, order := range []twoknn.JoinOrder{twoknn.OrderAuto, twoknn.OrderABFirst, twoknn.OrderCBFirst} {
		order := order
		triples("unchained/block-marking/"+order.String(), func(st *twoknn.Stats) ([]twoknn.Triple, error) {
			return twoknn.UnchainedJoins(a, b, c, goldenKJoin, goldenKJoin, twoknn.WithJoinOrder(order), twoknn.WithStats(st))
		})
	}
	// Both outer relations uniform: OrderAuto skips the preprocessing and
	// runs the conceptual plan (Section 4.1.2).
	triples("unchained/conceptual", func(st *twoknn.Stats) ([]twoknn.Triple, error) {
		return twoknn.UnchainedJoins(ua, b, uc, goldenKJoin, goldenKJoin, twoknn.WithStats(st))
	})

	for _, qep := range []twoknn.ChainedQEP{twoknn.ChainedAuto, twoknn.ChainedRightDeep,
		twoknn.ChainedJoinIntersection, twoknn.ChainedNestedJoin, twoknn.ChainedNestedJoinCached} {
		qep := qep
		triples("chained/"+qep.String(), func(st *twoknn.Stats) ([]twoknn.Triple, error) {
			return twoknn.ChainedJoins(a, b, c, goldenKJoin, goldenKJoin, twoknn.WithChainedQEP(qep), twoknn.WithStats(st))
		})
	}
	// A self-chain: B and C are one relation, so the nested join's two
	// probe sides share a searcher.
	triples("chained/self", func(st *twoknn.Stats) ([]twoknn.Triple, error) {
		return twoknn.ChainedJoins(a, b, b, goldenKJoin, goldenKJoin, twoknn.WithStats(st))
	})

	points("two-selects/procedure-5", func(st *twoknn.Stats) ([]twoknn.Point, error) {
		return twoknn.TwoSelects(b, focal, goldenKSel, focal2, goldenK2, twoknn.WithStats(st))
	})
	points("two-selects/conceptual", func(st *twoknn.Stats) ([]twoknn.Point, error) {
		return twoknn.TwoSelects(b, focal, goldenKSel, focal2, goldenK2,
			twoknn.WithAlgorithm(twoknn.AlgorithmConceptual), twoknn.WithStats(st))
	})
}

// TestGoldenDigests replays the battery on single relations of both
// index kinds (emitted order) and on a hash-3 and a spatial-2 sharded
// layout (canonical order), and compares against the committed digests.
func TestGoldenDigests(t *testing.T) {
	a, b, c, ua, uc := goldenPoints(t)
	got := make(map[string]goldenDigest)

	for _, kind := range []twoknn.IndexKind{twoknn.GridIndex, twoknn.QuadtreeIndex} {
		build := func(name string, pts []twoknn.Point) twoknn.Source {
			rel, err := twoknn.NewRelation(name, pts,
				twoknn.WithIndexKind(kind), twoknn.WithBlockCapacity(16), twoknn.WithBounds(goldenBounds))
			if err != nil {
				t.Fatalf("NewRelation(%s, %s): %v", name, kind, err)
			}
			return rel
		}
		goldenBattery(t, got, "single/"+kind.String(), a[0],
			build("A", a), build("B", b), build("C", c), build("UA", ua), build("UC", uc))
	}

	for _, layout := range []struct {
		name   string
		shards int
		policy twoknn.ShardPolicy
	}{
		{"sharded/hash-3", 3, twoknn.HashSharding},
		{"sharded/spatial-2", 2, twoknn.SpatialSharding},
	} {
		build := func(name string, pts []twoknn.Point) twoknn.Source {
			rel, err := twoknn.NewShardedRelation(name, pts, layout.shards,
				twoknn.WithBlockCapacity(16), twoknn.WithShardPolicy(layout.policy))
			if err != nil {
				t.Fatalf("NewShardedRelation(%s, %s): %v", name, layout.name, err)
			}
			return rel
		}
		goldenBattery(t, got, layout.name, a[0],
			build("A", a), build("B", b), build("C", c), build("UA", ua), build("UC", uc))
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (generate with -update): %v", err)
	}
	var want map[string]goldenDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decoding %s: %v", goldenPath, err)
	}
	if len(got) != len(want) {
		t.Errorf("battery produced %d digests, golden file holds %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: in the golden file but not produced", name)
			continue
		}
		if g != w {
			t.Errorf("%s:\n got %+v\nwant %+v", name, g, w)
		}
	}
}
