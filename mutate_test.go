package twoknn_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	twoknn "repro"
	"repro/internal/datagen"
)

// mutOracle mirrors a mutable relation's live point set by stable ID; its
// rebuild is the from-scratch oracle the differential battery compares
// against.
type mutOracle struct {
	pts    map[int32]twoknn.Point
	nextID int32
}

func newMutOracle(pts []twoknn.Point) *mutOracle {
	o := &mutOracle{pts: make(map[int32]twoknn.Point, len(pts)), nextID: int32(len(pts))}
	for i, p := range pts {
		o.pts[int32(i)] = p
	}
	return o
}

func (o *mutOracle) insert(pts ...twoknn.Point) []int32 {
	ids := make([]int32, len(pts))
	for i, p := range pts {
		o.pts[o.nextID] = p
		ids[i] = o.nextID
		o.nextID++
	}
	return ids
}

func (o *mutOracle) remove(ids ...int32) {
	for _, id := range ids {
		delete(o.pts, id)
	}
}

func (o *mutOracle) update(id int32, p twoknn.Point) {
	o.pts[id] = p
	if id >= o.nextID {
		o.nextID = id + 1
	}
}

// rebuild indexes the oracle's live point set from scratch.
func (o *mutOracle) rebuild(t *testing.T, kind twoknn.IndexKind, capacity int) *twoknn.Relation {
	t.Helper()
	pts := make([]twoknn.Point, 0, len(o.pts))
	for _, p := range o.pts {
		pts = append(pts, p)
	}
	opts := []twoknn.RelationOption{twoknn.WithIndexKind(kind), twoknn.WithBlockCapacity(capacity)}
	if len(pts) == 0 {
		opts = append(opts, twoknn.WithBounds(testBounds))
	}
	rel, err := twoknn.NewRelation("oracle", pts, opts...)
	if err != nil {
		t.Fatalf("rebuilding oracle: %v", err)
	}
	return rel
}

func sortedPairs(ps []twoknn.Pair) []twoknn.Pair {
	out := append([]twoknn.Pair(nil), ps...)
	twoknn.SortPairs(out)
	return out
}

func sortedTriples(ts []twoknn.Triple) []twoknn.Triple {
	out := append([]twoknn.Triple(nil), ts...)
	twoknn.SortTriples(out)
	return out
}

// checkMutatedAgainstRebuild runs every query shape against the mutated
// relation and a from-scratch rebuild of its live point set; answers must
// be byte-identical (canonical order for selects, SortPairs/SortTriples
// order for joins, whose row order tracks block layout).
func checkMutatedAgainstRebuild(t *testing.T, mut, oracle, other *twoknn.Relation) {
	t.Helper()
	f := twoknn.Point{X: 430, Y: 510}
	f2 := twoknn.Point{X: 200, Y: 250}
	rng := twoknn.NewRect(150, 150, 700, 700)
	focals := []twoknn.Point{{X: 100, Y: 100}, {X: 430, Y: 510}, {X: 900, Y: 40}, {X: 100, Y: 100}}

	type q struct {
		name string
		run  func(rel *twoknn.Relation) (any, error)
	}
	queries := []q{
		{"knn-select", func(rel *twoknn.Relation) (any, error) {
			return rel.KNNSelect(f, 7)
		}},
		{"knn-select-batch", func(rel *twoknn.Relation) (any, error) {
			return twoknn.KNNSelectBatch(rel, focals, 5)
		}},
		{"two-selects", func(rel *twoknn.Relation) (any, error) {
			return twoknn.TwoSelects(rel, f, 9, f2, 4)
		}},
		{"two-selects-batch", func(rel *twoknn.Relation) (any, error) {
			return twoknn.TwoSelectsBatch(rel, focals, 6, []twoknn.Point{f2, f2, f, f}, 3)
		}},
		{"knn-join-outer", func(rel *twoknn.Relation) (any, error) {
			ps, err := twoknn.KNNJoin(rel, other, 3)
			return sortedPairs(ps), err
		}},
		{"knn-join-inner", func(rel *twoknn.Relation) (any, error) {
			ps, err := twoknn.KNNJoin(other, rel, 3)
			return sortedPairs(ps), err
		}},
		{"select-outer-join", func(rel *twoknn.Relation) (any, error) {
			ps, err := twoknn.SelectOuterJoin(rel, other, f, 6, 2)
			return sortedPairs(ps), err
		}},
		{"range-inner-join", func(rel *twoknn.Relation) (any, error) {
			ps, err := twoknn.RangeInnerJoin(other, rel, rng, 2)
			return sortedPairs(ps), err
		}},
		{"unchained-joins", func(rel *twoknn.Relation) (any, error) {
			ts, err := twoknn.UnchainedJoins(other, rel, other, 2, 3)
			return sortedTriples(ts), err
		}},
		{"chained-joins", func(rel *twoknn.Relation) (any, error) {
			ts, err := twoknn.ChainedJoins(other, rel, other, 2, 2)
			return sortedTriples(ts), err
		}},
	}
	for _, alg := range []twoknn.Algorithm{twoknn.AlgorithmConceptual, twoknn.AlgorithmCounting, twoknn.AlgorithmBlockMarking} {
		alg := alg
		queries = append(queries, q{"select-inner-join-" + alg.String(), func(rel *twoknn.Relation) (any, error) {
			ps, err := twoknn.SelectInnerJoin(other, rel, f, 3, 12, twoknn.WithAlgorithm(alg))
			return sortedPairs(ps), err
		}})
	}

	for _, qq := range queries {
		got, err := qq.run(mut)
		if err != nil {
			t.Fatalf("%s on mutated relation: %v", qq.name, err)
		}
		want, err := qq.run(oracle)
		if err != nil {
			t.Fatalf("%s on rebuilt oracle: %v", qq.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s diverges between mutated relation and from-scratch rebuild\n got  %v\n want %v", qq.name, got, want)
		}
	}
}

// TestMutateDifferentialMatrix drives a scripted mutation sequence — dense
// inserts (with co-located duplicates), base and delta removals, moves, and
// remove-then-reinsert of the same ID — through both index kinds,
// comparing every query shape against a from-scratch rebuild after every
// stage and after explicit compaction.
func TestMutateDifferentialMatrix(t *testing.T) {
	kinds := []twoknn.IndexKind{twoknn.GridIndex, twoknn.QuadtreeIndex}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			base := datagen.Uniform(300, testBounds, 7)
			rel, err := twoknn.NewRelation("mut", base,
				twoknn.WithIndexKind(kind), twoknn.WithBlockCapacity(16),
				twoknn.WithCompactThreshold(-1)) // deterministic: no background merges
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			other := uniformRelation(t, "other", 150, 8, twoknn.WithIndexKind(kind), twoknn.WithBlockCapacity(16))
			oracle := newMutOracle(base)
			rng := rand.New(rand.NewSource(int64(kind) + 100))

			epoch := rel.Epoch()
			stage := func(name string) {
				t.Helper()
				if e := rel.Epoch(); e <= epoch {
					t.Fatalf("%s: epoch did not advance (%d -> %d)", name, epoch, e)
				}
				epoch = rel.Epoch()
				checkMutatedAgainstRebuild(t, rel, oracle.rebuild(t, kind, 16), other)
				if rel.Len() != len(oracle.pts) {
					t.Fatalf("%s: Len = %d, oracle has %d", name, rel.Len(), len(oracle.pts))
				}
			}

			// Stage 1: inserts, including exact duplicates of existing points.
			ins := datagen.Uniform(60, testBounds, 9)
			ins = append(ins, base[0], base[0], base[17])
			gotIDs := rel.Insert(ins...)
			wantIDs := oracle.insert(ins...)
			if !reflect.DeepEqual(gotIDs, wantIDs) {
				t.Fatalf("Insert IDs = %v, want %v", gotIDs[:3], wantIDs[:3])
			}
			stage("insert")

			// Stage 2: removals across base and delta, plus no-op removes.
			rm := []int32{0, 17, 33, gotIDs[0], gotIDs[5], 299}
			if n := rel.Remove(rm...); n != len(rm) {
				t.Fatalf("Remove = %d, want %d", n, len(rm))
			}
			oracle.remove(rm...)
			if n := rel.Remove(rm[0], 99999); n != 0 {
				t.Fatalf("repeat Remove = %d, want 0", n)
			}
			stage("remove")

			// Stage 3: moves, upsert of a fresh ID, and reinsert of removed IDs.
			for i := 0; i < 40; i++ {
				id := int32(rng.Intn(int(oracle.nextID)))
				p := twoknn.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
				existed := rel.Update(id, p)
				if _, want := oracle.pts[id]; existed != want {
					t.Fatalf("Update(%d) existed = %v, want %v", id, existed, want)
				}
				oracle.update(id, p)
			}
			reinsert := twoknn.Point{X: 512, Y: 512}
			if rel.Update(rm[0], reinsert) {
				t.Fatalf("Update of removed ID %d claims it existed", rm[0])
			}
			oracle.update(rm[0], reinsert)
			if got, ok := rel.PointByID(rm[0]); !ok || got != reinsert {
				t.Fatalf("PointByID(%d) = %v, %v after reinsert", rm[0], got, ok)
			}
			stage("update")

			// Compaction: same answers, residency drains, epoch unchanged
			// (the live set did not change, cached results stay valid).
			beforeEpoch := rel.Epoch()
			if err := rel.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			if rel.Epoch() != beforeEpoch {
				t.Fatalf("Compact bumped epoch %d -> %d", beforeEpoch, rel.Epoch())
			}
			ds := rel.DeltaStats()
			if ds.DeltaLive != 0 || ds.Tombstones != 0 {
				t.Fatalf("post-compact residency: %+v", ds)
			}
			if ds.Compactions == 0 {
				t.Fatalf("compactions counter did not advance: %+v", ds)
			}
			checkMutatedAgainstRebuild(t, rel, oracle.rebuild(t, kind, 16), other)

			// PointByID over the final state: live IDs resolve, dead don't.
			for id, p := range oracle.pts {
				if got, ok := rel.PointByID(id); !ok || got != p {
					t.Fatalf("PointByID(%d) = %v, %v; want %v, true", id, got, ok, p)
				}
			}
			for _, id := range rm[1:] {
				if _, live := oracle.pts[id]; live {
					continue // resurrected by the random Update loop
				}
				if _, ok := rel.PointByID(id); ok {
					t.Fatalf("PointByID(%d) resolves a removed point", id)
				}
			}
		})
	}
}

// TestPointByIDNotStale pins the satellite fix: the inverse index is
// per-snapshot, so mutations neither ghost removed IDs nor hide inserted
// ones — even when the inverse was built before the mutation.
func TestPointByIDNotStale(t *testing.T) {
	rel := uniformRelation(t, "stale", 100, 11)
	if _, ok := rel.PointByID(42); !ok { // force the inverse to exist
		t.Fatal("ID 42 must resolve before mutation")
	}
	rel.Remove(42)
	if _, ok := rel.PointByID(42); ok {
		t.Fatal("removed ID 42 still resolves (stale inverse)")
	}
	ids := rel.Insert(twoknn.Point{X: 5, Y: 5})
	if got, ok := rel.PointByID(ids[0]); !ok || (got != twoknn.Point{X: 5, Y: 5}) {
		t.Fatalf("inserted ID %d does not resolve: %v, %v", ids[0], got, ok)
	}
	// PointIDs/PointAt agree with the live set.
	idSet := make(map[int32]bool)
	for i, id := range rel.PointIDs() {
		idSet[id] = true
		if p, ok := rel.PointByID(id); !ok || p != rel.PointAt(i) {
			t.Fatalf("PointAt(%d)/PointByID(%d) disagree", i, id)
		}
		if rel.PointID(i) != id {
			t.Fatalf("PointID(%d) = %d, want %d", i, rel.PointID(i), id)
		}
	}
	if idSet[42] || !idSet[ids[0]] || len(idSet) != rel.Len() {
		t.Fatalf("PointIDs inconsistent with mutations: %d ids, len %d", len(idSet), rel.Len())
	}
}

// TestAutoCompaction checks that crossing the threshold triggers a
// background merge that drains the overlay without changing answers.
func TestAutoCompaction(t *testing.T) {
	base := datagen.Uniform(200, testBounds, 13)
	rel, err := twoknn.NewRelation("auto", base, twoknn.WithBlockCapacity(16),
		twoknn.WithCompactThreshold(0.10))
	if err != nil {
		t.Fatal(err)
	}
	oracle := newMutOracle(base)
	ins := datagen.Uniform(60, testBounds, 14)
	rel.Insert(ins...)
	oracle.insert(ins...)

	deadline := time.Now().Add(10 * time.Second)
	for {
		ds := rel.DeltaStats()
		if ds.Compactions >= 1 && ds.DeltaLive == 0 && ds.Tombstones == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compaction did not drain the overlay: %+v", ds)
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, err := rel.KNNSelect(twoknn.Point{X: 500, Y: 500}, 9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.rebuild(t, twoknn.GridIndex, 16).KNNSelect(twoknn.Point{X: 500, Y: 500}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-auto-compact answers diverge\n got  %v\n want %v", got, want)
	}
}

// TestMutationStreamAcrossCompaction drives a long interleaved stream of
// inserts, removes and moves through a relation that compacts in the
// background at the default threshold, and holds every query shape to a
// from-scratch rebuild of the live set every ten steps, right after a
// background merge has landed, and after a final explicit compaction.
func TestMutationStreamAcrossCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	fresh := func() twoknn.Point {
		return twoknn.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	base := make([]twoknn.Point, 400)
	for i := range base {
		base[i] = fresh()
	}
	rel, err := twoknn.NewRelation("stream", base, twoknn.WithBlockCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	other := uniformRelation(t, "other", 150, 8, twoknn.WithBlockCapacity(16))
	oracle := newMutOracle(base)
	live := make([]int32, len(base)) // live IDs, in the order the stream picks from
	for i := range live {
		live[i] = int32(i)
	}

	compare := func(step int) {
		t.Helper()
		if rel.Len() != len(oracle.pts) {
			t.Fatalf("step %d: Len = %d, oracle has %d", step, rel.Len(), len(oracle.pts))
		}
		checkMutatedAgainstRebuild(t, rel, oracle.rebuild(t, twoknn.GridIndex, 16), other)
	}

	compare(-1)
	for step := 0; step < 300; step++ {
		switch step % 4 {
		case 0, 1: // insert
			p := fresh()
			ids := rel.Insert(p)
			oracle.insert(p)
			live = append(live, ids[0])
		case 2: // remove a random live point
			i := rng.Intn(len(live))
			id := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if n := rel.Remove(id); n != 1 {
				t.Fatalf("step %d: Remove(%d) = %d", step, id, n)
			}
			oracle.remove(id)
		default: // move a random live point
			id := live[rng.Intn(len(live))]
			p := fresh()
			if !rel.Update(id, p) {
				t.Fatalf("step %d: Update(%d) missed a live point", step, id)
			}
			oracle.update(id, p)
		}
		if step%10 == 9 {
			compare(step)
		}
		if step == 149 {
			// The stream crossed the default compaction threshold long ago,
			// so a background merge has started; let one land and check the
			// answers right after the swap.
			awaitCompaction(t, rel)
			compare(step)
		}
	}
	if err := rel.Compact(); err != nil {
		t.Fatal(err)
	}
	compare(300)
}

// awaitCompaction blocks until rel has completed at least one compaction.
// Merges run on a background goroutine with no completion signal, so the
// lifetime counter is polled.
func awaitCompaction(t *testing.T, rel *twoknn.Relation) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for rel.DeltaStats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no compaction completed at the default threshold")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMutateEmptyAndEdgeCases covers mutation starting from an empty
// relation, removing everything, and compacting an empty live set.
func TestMutateEmptyAndEdgeCases(t *testing.T) {
	for _, kind := range []twoknn.IndexKind{twoknn.GridIndex, twoknn.QuadtreeIndex} {
		rel, err := twoknn.NewRelation("empty", nil,
			twoknn.WithBounds(testBounds), twoknn.WithIndexKind(kind), twoknn.WithCompactThreshold(-1))
		if err != nil {
			t.Fatal(err)
		}
		if ids := rel.Insert(); ids != nil {
			t.Fatal("empty Insert must be a nil no-op")
		}
		if rel.Update(-3, twoknn.Point{}) {
			t.Fatal("negative-ID Update must be rejected")
		}
		ids := rel.Insert(twoknn.Point{X: 10, Y: 10}, twoknn.Point{X: 20, Y: 20})
		if rel.Len() != 2 {
			t.Fatalf("%v: Len = %d, want 2", kind, rel.Len())
		}
		got, err := rel.KNNSelect(twoknn.Point{X: 0, Y: 0}, 5)
		if err != nil || len(got) != 2 {
			t.Fatalf("%v: KNNSelect over delta-only relation: %v, %v", kind, got, err)
		}
		if n := rel.Remove(ids...); n != 2 {
			t.Fatalf("Remove = %d, want 2", n)
		}
		if rel.Len() != 0 {
			t.Fatalf("Len = %d after removing everything", rel.Len())
		}
		if err := rel.Compact(); err != nil {
			t.Fatalf("%v: compacting to empty: %v", kind, err)
		}
		if rel.Len() != 0 || rel.Bounds().Area() <= 0 {
			t.Fatalf("%v: post-compact empty relation: len %d bounds %v", kind, rel.Len(), rel.Bounds())
		}
		// And it keeps accepting writes after an empty compact.
		rel.Insert(twoknn.Point{X: 1, Y: 2})
		if rel.Len() != 1 {
			t.Fatalf("Len = %d after post-compact insert", rel.Len())
		}
	}
}

// TestCloneSharesMutations pins Clone semantics: clones share snapshots,
// epoch and the write path.
func TestCloneSharesMutations(t *testing.T) {
	rel := uniformRelation(t, "clone", 50, 21)
	cl := rel.Clone()
	ids := rel.Insert(twoknn.Point{X: 3, Y: 4})
	if cl.Len() != 51 {
		t.Fatalf("clone Len = %d, want 51", cl.Len())
	}
	if cl.Epoch() != rel.Epoch() {
		t.Fatal("clone epoch diverged")
	}
	if _, ok := cl.PointByID(ids[0]); !ok {
		t.Fatal("clone does not see inserted point")
	}
	cl.Remove(ids[0])
	if rel.Len() != 50 {
		t.Fatalf("original Len = %d after clone removal, want 50", rel.Len())
	}
}

// TestWrittenOuterTakesNoContourStop pins Procedure 3's fallback on a
// written relation: an overlay snapshot with pending writes appends delta
// blocks over the base tiling, so its blocks no longer tile space and
// Block-Marking must test every outer block instead of stopping at the
// contour — and still return the conceptual plan's rows. The same outer
// before its writes takes the contour stop.
func TestWrittenOuterTakesNoContourStop(t *testing.T) {
	f := twoknn.Point{X: 500, Y: 500}
	inner, err := twoknn.NewRelation("inner", datagen.Uniform(1500, testBounds, 21), twoknn.WithBounds(testBounds))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []twoknn.IndexKind{twoknn.GridIndex, twoknn.QuadtreeIndex} {
		outer, err := twoknn.NewRelation("outer", datagen.Uniform(500, testBounds, 22),
			twoknn.WithBounds(testBounds), twoknn.WithIndexKind(kind), twoknn.WithCompactThreshold(-1))
		if err != nil {
			t.Fatal(err)
		}
		blockMarking := func() ([]twoknn.Pair, string) {
			var explain string
			got, err := twoknn.SelectInnerJoin(outer, inner, f, 4, 16,
				twoknn.WithAlgorithm(twoknn.AlgorithmBlockMarking), twoknn.WithExplain(&explain))
			if err != nil {
				t.Fatal(err)
			}
			return got, explain
		}
		if _, explain := blockMarking(); strings.Contains(explain, "preprocessing: exhaustive") {
			t.Errorf("%v: unwritten outer fell back to exhaustive preprocessing:\n%s", kind, explain)
		}

		outer.Insert(datagen.Uniform(50, testBounds, 23)...)
		got, explain := blockMarking()
		if !strings.Contains(explain, "preprocessing: exhaustive") {
			t.Errorf("%v: written outer took the contour stop:\n%s", kind, explain)
		}
		want, err := twoknn.SelectInnerJoin(outer, inner, f, 4, 16, twoknn.WithAlgorithm(twoknn.AlgorithmConceptual))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%v: block-marking rows differ from conceptual\n got  %v\n want %v", kind, got, want)
		}
	}
}
