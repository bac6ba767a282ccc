package core_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/index/grid"
	"repro/internal/remote"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/testutil"
)

// TestUnchainedPrunesCompose runs Procedure 4's second join as Unchained
// does — one selection over the first join's b's, exhaustive marking — with
// Auto, which adds Counting's tuple prune to Block-Marking's block prune,
// and with Block-Marking alone. Both prunes are exact, so the rows equal
// each other and the conceptual plan's on every backing of B: a single
// grid or quadtree, in-process hash-3 and spatial-2 groups and a loopback
// remote fleet, two workers each. The tuple prune only removes
// neighborhoods from the blocks marking keeps, and ab-first, whose second
// outer relation is uniform around a clustered first one, skips tuples.
func TestUnchainedPrunesCompose(t *testing.T) {
	const k, workers = 4, 2
	a := testutil.BuildRelation(t, testutil.Grid, testutil.ClusteredPoints(200, 1, 30, unBounds, 4801))
	c := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(500, unBounds, 4802))
	ptsB := testutil.UniformPoints(3000, unBounds, 4803)

	build := func(st *geom.PointStore) (index.Index, error) {
		return grid.NewFromStore(st, grid.Options{TargetPerCell: 16})
	}
	group := func(shards int, policy shard.Policy) *shard.Relation {
		rel, err := shard.New(ptsB, shards, policy, 0, build)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	hashed := group(3, shard.PolicyHash)
	tps := make([][]remote.ShardTransport, hashed.NumShards())
	for i := range tps {
		srv := remote.NewShardServer(hashed.Shard(i), remote.ShardServerConfig{Name: "B", Shard: i, Shards: len(tps)})
		tps[i] = []remote.ShardTransport{remote.NewLoopback(srv, "")}
	}
	members, err := remote.Dial(context.Background(), tps, remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	backings := []struct {
		name string
		b    core.Operand
	}{
		{"grid", testutil.BuildRelation(t, testutil.Grid, ptsB)},
		{"quadtree", testutil.BuildRelation(t, testutil.Quadtree, ptsB)},
		{"hash-3", hashed.Group()},
		{"spatial-2", group(2, shard.PolicySpatial).Group()},
		{"remote-3", remote.NewGroup(members, nil)},
	}
	for _, bk := range backings {
		for _, abFirst := range []bool{true, false} {
			first, second, what := core.Operand(a), core.Operand(c), bk.name+"/ab-first"
			if !abFirst {
				first, second, what = c, a, bk.name+"/cb-first"
			}
			sel := core.SecondJoinSelection(core.Join(first, bk.b, k, workers, nil))
			run := func(alg core.Algorithm) ([]core.Pair, stats.Counters) {
				var ctr stats.Counters
				rows := core.SelectInnerJoin(second, bk.b, sel, k, alg, core.BlockMarkingOptions{Exhaustive: true}, workers, &ctr)
				return rows, ctr.Snapshot()
			}
			want, _ := run(core.AlgorithmConceptual)
			if len(want) == 0 {
				t.Fatalf("%s: the conceptual plan returns no rows: the case compares nothing", what)
			}
			bm, bmSt := run(core.AlgorithmBlockMarking)
			auto, autoSt := run(core.AlgorithmAuto)
			for name, got := range map[string][]core.Pair{"block-marking": bm, "auto": auto} {
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s/%s: %d rows differ from the conceptual plan's %d", what, name, len(got), len(want))
				}
			}
			if autoSt.Neighborhoods > bmSt.Neighborhoods {
				t.Errorf("%s: auto computed %d neighborhoods, block-marking %d: the tuple prune must only remove some",
					what, autoSt.Neighborhoods, bmSt.Neighborhoods)
			}
			if abFirst && autoSt.OuterSkipped == 0 {
				t.Errorf("%s: auto skipped no tuple", what)
			}
			t.Logf("%s: neighborhoods %d → %d, %d tuples skipped", what, bmSt.Neighborhoods, autoSt.Neighborhoods, autoSt.OuterSkipped)
		}
	}
}
