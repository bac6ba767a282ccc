package twoknn_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	twoknn "repro"
	"repro/internal/datagen"
)

// TestArgumentValidation locks the argument-validation contract of all eight
// public query entry points (KNNSelect on both backings, KNNJoin,
// SelectInnerJoin, SelectOuterJoin, TwoSelects, UnchainedJoins,
// ChainedJoins, RangeInnerJoin):
//
//   - any nil relation argument (nil interface or typed nil pointer) returns
//     an error wrapping ErrNilRelation;
//   - any non-positive k parameter returns an error wrapping
//     ErrNonPositiveK;
//   - empty relations (zero points, built with WithBounds) are NOT an
//     error: queries succeed and return empty results.
func TestArgumentValidation(t *testing.T) {
	bounds := twoknn.NewRect(0, 0, 100, 100)
	f := twoknn.Point{X: 50, Y: 50}
	rng := twoknn.NewRect(10, 10, 60, 60)
	pts := datagen.Uniform(40, bounds, 1)

	rel, err := twoknn.NewRelation("r", pts, twoknn.WithBounds(bounds))
	if err != nil {
		t.Fatal(err)
	}
	srel, err := twoknn.NewShardedRelation("s", pts, 3, twoknn.WithBounds(bounds))
	if err != nil {
		t.Fatal(err)
	}
	empty, err := twoknn.NewRelation("empty", nil, twoknn.WithBounds(bounds))
	if err != nil {
		t.Fatal(err)
	}
	sempty, err := twoknn.NewShardedRelation("sempty", nil, 2, twoknn.WithBounds(bounds))
	if err != nil {
		t.Fatal(err)
	}

	// Each entry invokes one public function with three relation slots (the
	// unused ones are ignored) and its k parameters taken from ks.
	type entry struct {
		name    string
		numRels int
		numKs   int
		// size reports the result cardinality (for the empty-relation
		// checks) alongside the error.
		invoke func(a, b, c twoknn.Source, ks []int) (int, error)
	}
	entries := []entry{
		{"KNNSelect", 1, 1, func(a, _, _ twoknn.Source, ks []int) (int, error) {
			switch r := a.(type) {
			case *twoknn.Relation:
				out, err := r.KNNSelect(f, ks[0])
				return len(out), err
			case *twoknn.ShardedRelation:
				out, err := r.KNNSelect(f, ks[0])
				return len(out), err
			default:
				// nil interface: exercise the method on a typed nil receiver.
				var r2 *twoknn.Relation
				out, err := r2.KNNSelect(f, ks[0])
				return len(out), err
			}
		}},
		{"KNNJoin", 2, 1, func(a, b, _ twoknn.Source, ks []int) (int, error) {
			out, err := twoknn.KNNJoin(a, b, ks[0])
			return len(out), err
		}},
		{"SelectInnerJoin", 2, 2, func(a, b, _ twoknn.Source, ks []int) (int, error) {
			out, err := twoknn.SelectInnerJoin(a, b, f, ks[0], ks[1])
			return len(out), err
		}},
		{"SelectOuterJoin", 2, 2, func(a, b, _ twoknn.Source, ks []int) (int, error) {
			out, err := twoknn.SelectOuterJoin(a, b, f, ks[0], ks[1])
			return len(out), err
		}},
		{"TwoSelects", 1, 2, func(a, _, _ twoknn.Source, ks []int) (int, error) {
			out, err := twoknn.TwoSelects(a, f, ks[0], twoknn.Point{X: 60, Y: 40}, ks[1])
			return len(out), err
		}},
		{"UnchainedJoins", 3, 2, func(a, b, c twoknn.Source, ks []int) (int, error) {
			out, err := twoknn.UnchainedJoins(a, b, c, ks[0], ks[1])
			return len(out), err
		}},
		{"ChainedJoins", 3, 2, func(a, b, c twoknn.Source, ks []int) (int, error) {
			out, err := twoknn.ChainedJoins(a, b, c, ks[0], ks[1])
			return len(out), err
		}},
		{"RangeInnerJoin", 2, 1, func(a, b, _ twoknn.Source, ks []int) (int, error) {
			out, err := twoknn.RangeInnerJoin(a, b, rng, ks[0])
			return len(out), err
		}},
	}

	validKs := func(n int) []int {
		ks := make([]int, n)
		for i := range ks {
			ks[i] = 2
		}
		return ks
	}
	nils := map[string]twoknn.Source{
		"nil-interface":   nil,
		"typed-nil":       (*twoknn.Relation)(nil),
		"typed-nil-shard": (*twoknn.ShardedRelation)(nil),
	}

	for _, e := range entries {
		for _, backing := range []struct {
			name      string
			full, nul twoknn.Source
		}{
			{"single", rel, empty},
			{"sharded", srel, sempty},
		} {
			t.Run(fmt.Sprintf("%s/%s", e.name, backing.name), func(t *testing.T) {
				args := func(slot int, v twoknn.Source) (a, b, c twoknn.Source) {
					a, b, c = backing.full, backing.full, backing.full
					switch slot {
					case 0:
						a = v
					case 1:
						b = v
					case 2:
						c = v
					}
					return
				}

				// Valid arguments succeed.
				if _, err := e.invoke(backing.full, backing.full, backing.full, validKs(e.numKs)); err != nil {
					t.Fatalf("valid call errored: %v", err)
				}

				// Every relation slot, every flavor of nil.
				for slot := 0; slot < e.numRels; slot++ {
					for nilName, v := range nils {
						a, b, c := args(slot, v)
						_, err := e.invoke(a, b, c, validKs(e.numKs))
						if !errors.Is(err, twoknn.ErrNilRelation) {
							t.Errorf("slot %d %s: got %v, want ErrNilRelation", slot, nilName, err)
						}
					}
				}

				// Every k slot, zero and negative.
				for kSlot := 0; kSlot < e.numKs; kSlot++ {
					for _, bad := range []int{0, -3} {
						ks := validKs(e.numKs)
						ks[kSlot] = bad
						_, err := e.invoke(backing.full, backing.full, backing.full, ks)
						if !errors.Is(err, twoknn.ErrNonPositiveK) {
							t.Errorf("k slot %d = %d: got %v, want ErrNonPositiveK", kSlot, bad, err)
						}
					}
				}

				// Empty relations: no error, empty result, in every slot and
				// in all slots at once.
				for slot := 0; slot < e.numRels; slot++ {
					a, b, c := args(slot, backing.nul)
					if _, err := e.invoke(a, b, c, validKs(e.numKs)); err != nil {
						t.Errorf("empty relation in slot %d errored: %v", slot, err)
					}
				}
				n, err := e.invoke(backing.nul, backing.nul, backing.nul, validKs(e.numKs))
				if err != nil {
					t.Errorf("all-empty call errored: %v", err)
				}
				if n != 0 {
					t.Errorf("all-empty call returned %d results", n)
				}
			})
		}
	}
}

// TestShardCountValidation locks NewShardedRelation's construction errors.
func TestShardCountValidation(t *testing.T) {
	pts := datagen.Uniform(10, twoknn.NewRect(0, 0, 10, 10), 1)
	for _, s := range []int{0, -1} {
		_, err := twoknn.NewShardedRelation("bad", pts, s)
		if !errors.Is(err, twoknn.ErrInvalidShardCount) {
			t.Errorf("shards=%d: got %v, want ErrInvalidShardCount", s, err)
		}
	}
	_, err := twoknn.NewShardedRelation("empty", nil, 2)
	if !errors.Is(err, twoknn.ErrEmptyRelation) {
		t.Errorf("empty without bounds: got %v, want ErrEmptyRelation", err)
	}
}

// TestNonFiniteCoordinates locks the coordinate contract of every entry
// point that takes focal points or a range rectangle: a NaN or infinite
// coordinate orders no distance, so the call returns an error wrapping
// ErrNonFiniteCoordinate instead of an answer.
func TestNonFiniteCoordinates(t *testing.T) {
	bounds := twoknn.NewRect(0, 0, 100, 100)
	pts := datagen.Uniform(40, bounds, 1)
	rel, err := twoknn.NewRelation("r", pts, twoknn.WithBounds(bounds))
	if err != nil {
		t.Fatal(err)
	}
	srel, err := twoknn.NewShardedRelation("s", pts, 3, twoknn.WithBounds(bounds))
	if err != nil {
		t.Fatal(err)
	}
	ok := twoknn.Point{X: 50, Y: 50}
	type selector interface {
		KNNSelect(f twoknn.Point, k int, opts ...twoknn.QueryOption) ([]twoknn.Point, error)
	}
	// Each entry calls one entry point with p in one coordinate slot.
	entries := []struct {
		name   string
		invoke func(s twoknn.Source, p twoknn.Point) error
	}{
		{"KNNSelect-method", func(s twoknn.Source, p twoknn.Point) error {
			_, err := s.(selector).KNNSelect(p, 5)
			return err
		}},
		{"KNNSelect", func(s twoknn.Source, p twoknn.Point) error {
			_, err := twoknn.KNNSelect(s, p, 5)
			return err
		}},
		{"TwoSelects/f1", func(s twoknn.Source, p twoknn.Point) error {
			_, err := twoknn.TwoSelects(s, p, 3, ok, 5)
			return err
		}},
		{"TwoSelects/f2", func(s twoknn.Source, p twoknn.Point) error {
			_, err := twoknn.TwoSelects(s, ok, 3, p, 5)
			return err
		}},
		{"SelectInnerJoin", func(s twoknn.Source, p twoknn.Point) error {
			_, err := twoknn.SelectInnerJoin(s, s, p, 2, 5)
			return err
		}},
		{"SelectOuterJoin", func(s twoknn.Source, p twoknn.Point) error {
			_, err := twoknn.SelectOuterJoin(s, s, p, 5, 2)
			return err
		}},
		{"RangeInnerJoin/min", func(s twoknn.Source, p twoknn.Point) error {
			_, err := twoknn.RangeInnerJoin(s, s, twoknn.Rect{MinX: p.X, MinY: p.Y, MaxX: 60, MaxY: 60}, 2)
			return err
		}},
		{"RangeInnerJoin/max", func(s twoknn.Source, p twoknn.Point) error {
			_, err := twoknn.RangeInnerJoin(s, s, twoknn.Rect{MinX: 10, MinY: 10, MaxX: p.X, MaxY: p.Y}, 2)
			return err
		}},
		{"KNNSelectBatch", func(s twoknn.Source, p twoknn.Point) error {
			_, err := twoknn.KNNSelectBatch(s, []twoknn.Point{ok, p}, 5)
			return err
		}},
		{"TwoSelectsBatch/f1s", func(s twoknn.Source, p twoknn.Point) error {
			_, err := twoknn.TwoSelectsBatch(s, []twoknn.Point{ok, p}, 3, []twoknn.Point{ok, ok}, 5)
			return err
		}},
		{"TwoSelectsBatch/f2s", func(s twoknn.Source, p twoknn.Point) error {
			_, err := twoknn.TwoSelectsBatch(s, []twoknn.Point{ok, ok}, 3, []twoknn.Point{ok, p}, 5)
			return err
		}},
	}
	bads := []twoknn.Point{
		{X: math.NaN(), Y: 3},
		{X: 3, Y: math.NaN()},
		{X: math.Inf(1), Y: 3},
		{X: 3, Y: math.Inf(-1)},
	}
	for _, e := range entries {
		for _, src := range []twoknn.Source{rel, srel} {
			if err := e.invoke(src, twoknn.Point{X: 30, Y: 30}); err != nil {
				t.Errorf("%s on %s: finite call errored: %v", e.name, src.Name(), err)
			}
			for _, p := range bads {
				if err := e.invoke(src, p); !errors.Is(err, twoknn.ErrNonFiniteCoordinate) {
					t.Errorf("%s on %s with %v: got %v, want ErrNonFiniteCoordinate", e.name, src.Name(), p, err)
				}
			}
		}
	}
}

// TestNonFiniteIngest locks the coordinate contract of every ingest path: a
// NaN or infinite point would sort as a nearest neighbour and make every
// later compaction fail, so the constructors refuse it with an error
// wrapping ErrNonFiniteCoordinate that names its index, and Insert and
// Update panic with such an error before they touch the relation.
func TestNonFiniteIngest(t *testing.T) {
	bounds := twoknn.NewRect(0, 0, 100, 100)
	pts := datagen.Uniform(40, bounds, 1)
	withBad := func(p twoknn.Point) []twoknn.Point {
		out := append([]twoknn.Point(nil), pts...)
		out[7] = p
		return out
	}
	bads := []twoknn.Point{
		{X: math.NaN(), Y: 3},
		{X: 3, Y: math.NaN()},
		{X: math.Inf(1), Y: 3},
		{X: 3, Y: math.Inf(-1)},
	}
	tests := []struct {
		name string
		// build runs a constructor over pts with p at index 7; mutate
		// applies p to rel. Each test sets one of them.
		build  func(p twoknn.Point) error
		mutate func(rel *twoknn.Relation, p twoknn.Point)
	}{
		{name: "NewRelation", build: func(p twoknn.Point) error {
			_, err := twoknn.NewRelation("r", withBad(p))
			return err
		}},
		{name: "NewRelation/bounds", build: func(p twoknn.Point) error {
			_, err := twoknn.NewRelation("r", withBad(p), twoknn.WithBounds(bounds))
			return err
		}},
		{name: "NewShardedRelation", build: func(p twoknn.Point) error {
			_, err := twoknn.NewShardedRelation("s", withBad(p), 3)
			return err
		}},
		{name: "Insert", mutate: func(rel *twoknn.Relation, p twoknn.Point) {
			rel.Insert(twoknn.Point{X: 1, Y: 1}, p)
		}},
		{name: "Update", mutate: func(rel *twoknn.Relation, p twoknn.Point) {
			rel.Update(3, p)
		}},
	}
	for _, tc := range tests {
		for _, p := range bads {
			if tc.build != nil {
				err := tc.build(p)
				if !errors.Is(err, twoknn.ErrNonFiniteCoordinate) || !strings.Contains(err.Error(), "(point 7)") {
					t.Errorf("%s with %v at index 7: got %v, want ErrNonFiniteCoordinate naming point 7", tc.name, p, err)
				}
				continue
			}
			rel, err := twoknn.NewRelation("m", pts, twoknn.WithCompactThreshold(-1))
			if err != nil {
				t.Fatal(err)
			}
			rel.Insert(twoknn.Point{X: 50, Y: 50}) // an overlay is resident, so Compact has work to do
			n, epoch := rel.Len(), rel.Epoch()
			if err := panicError(func() { tc.mutate(rel, p) }); !errors.Is(err, twoknn.ErrNonFiniteCoordinate) {
				t.Errorf("%s(%v): panicked with %v, want an error wrapping ErrNonFiniteCoordinate", tc.name, p, err)
			}
			if rel.Len() != n || rel.Epoch() != epoch {
				t.Errorf("%s(%v): Len %d → %d, Epoch %d → %d; want both unchanged", tc.name, p, n, rel.Len(), epoch, rel.Epoch())
			}
			if err := rel.Compact(); err != nil || rel.Len() != n {
				t.Errorf("%s(%v): Compact afterwards: %v, Len %d (want nil, %d)", tc.name, p, err, rel.Len(), n)
			}
		}
	}
}

// panicError runs f and returns the error it panicked with, or nil if it
// returned normally or panicked with a non-error value.
func panicError(f func()) (err error) {
	defer func() { err, _ = recover().(error) }()
	f()
	return nil
}
