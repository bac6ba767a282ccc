package twoknn_test

import (
	"fmt"
	"math/rand"
	"testing"

	twoknn "repro"
	"repro/internal/bench"
)

// Benchmarks for the sharded scatter/gather execution path, recorded in the
// BENCH_PR*.json micro section alongside the single-relation hot-path
// numbers. The per-shard hot path itself (each shard's Neighborhood call) is
// the same zero-allocation code the single-relation benchmarks measure; what
// these add is the gather overhead: S-way candidate merge per probe.

func buildShardedBench(b *testing.B, role string, n, shards int, policy twoknn.ShardPolicy) *twoknn.ShardedRelation {
	b.Helper()
	// No WithBounds: each shard's index fits its own extent, the layout the
	// shard-skip needs to keep spatial tiles cheap.
	rel, err := twoknn.NewShardedRelation(role, bench.BerlinMODPoints(role, n), shards,
		twoknn.WithBlockCapacity(bench.DefaultPerCell),
		twoknn.WithShardPolicy(policy))
	if err != nil {
		b.Fatal(err)
	}
	return rel
}

// BenchmarkShardedKNNJoin measures the full scatter/gather join at a few
// shard counts (sequential drivers; the parallel story is the abl-shards /
// abl-parallel sweeps).
func BenchmarkShardedKNNJoin(b *testing.B) {
	const n = 20000
	for _, s := range []int{1, 4} {
		for _, policy := range []twoknn.ShardPolicy{twoknn.HashSharding, twoknn.SpatialSharding} {
			b.Run(fmt.Sprintf("shards=%d/%s", s, policy), func(b *testing.B) {
				outer := buildShardedBench(b, "fig19-outer", n, s, policy)
				inner := buildShardedBench(b, "fig19-inner", n, s, policy)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pairs, err := twoknn.KNNJoin(outer, inner, 10)
					if err != nil {
						b.Fatal(err)
					}
					if len(pairs) != n*10 {
						b.Fatalf("join returned %d pairs", len(pairs))
					}
				}
			})
		}
	}
}

// BenchmarkShardedKNNSelect measures one gathered global kNN-select over a
// 4-shard relation: S per-shard probes (each zero-alloc) plus the merge.
func BenchmarkShardedKNNSelect(b *testing.B) {
	rel := buildShardedBench(b, "fig19-inner", 50000, 4, twoknn.SpatialSharding)
	f := twoknn.Point{X: 5000, Y: 5000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := rel.KNNSelect(f, 10)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 10 {
			b.Fatalf("select returned %d points", len(pts))
		}
	}
}

// BenchmarkShardedKNNSelectBatch measures a batch of 64 Zipf-drawn focals
// (Zipf(1.1) over a pool of 4096 jittered data points, the shape of the
// standing benchmark's batch traffic) over 3 shards of each policy: the
// batch probes focal by focal, so the spatial tiles keep the shard skip.
func BenchmarkShardedKNNSelectBatch(b *testing.B) {
	const n, k = 50000, 10
	for _, policy := range []twoknn.ShardPolicy{twoknn.HashSharding, twoknn.SpatialSharding} {
		b.Run(fmt.Sprintf("shards=3/%s", policy), func(b *testing.B) {
			rel := buildShardedBench(b, "fig19-inner", n, 3, policy)
			pts := bench.BerlinMODPoints("fig19-inner", n)
			rng := rand.New(rand.NewSource(7))
			pool := make([]twoknn.Point, 4096)
			for i := range pool {
				p := pts[rng.Intn(len(pts))]
				pool[i] = twoknn.Point{X: p.X + (rng.Float64()*2-1)*50, Y: p.Y + (rng.Float64()*2-1)*50}
			}
			zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
			focals := make([]twoknn.Point, 64)
			for i := range focals {
				focals[i] = pool[zipf.Uint64()]
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := rel.KNNSelectBatch(focals, k)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != len(focals) || len(res[0]) != k {
					b.Fatalf("batch returned %d answers", len(res))
				}
			}
		})
	}
}
