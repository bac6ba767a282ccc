package core

// Order-exact differential for the b-grouping that every triple-producing
// body emits through: IntersectOnB and the chained QEPs' grouping of
// (B ⋈kNN C) must return the rows the map-of-slices bodies they replaced
// returned — the same rows, in the same order — on inputs made of
// co-located duplicates, interleaved duplicate neighborhood runs and empty
// sides.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
)

// refIntersectOnB is the map-of-slices IntersectOnB body the grouping
// replaced, kept as the reference.
func refIntersectOnB(abPairs, cbPairs []Pair) []Triple {
	cByB := make(map[geom.Point][]geom.Point)
	for _, pr := range cbPairs {
		cByB[pr.Right] = append(cByB[pr.Right], pr.Left)
	}
	var out []Triple
	for _, pr := range abPairs {
		for _, cpt := range cByB[pr.Right] {
			out = append(out, Triple{A: pr.Left, B: pr.Right, C: cpt})
		}
	}
	return out
}

// refGroupRightsByLeft is the chained QEPs' former grouping of (B ⋈kNN C),
// kept as the reference: each b's first maxLen c's, in pair order.
func refGroupRightsByLeft(pairs []Pair, maxLen int) map[geom.Point][]geom.Point {
	m := make(map[geom.Point][]geom.Point)
	for _, pr := range pairs {
		lst, ok := m[pr.Left]
		if !ok {
			lst = make([]geom.Point, 0, maxLen)
		}
		if len(lst) < maxLen {
			m[pr.Left] = append(lst, pr.Right)
		}
	}
	return m
}

// refChainedJoinIntersection is QEP2's former emission over the reference
// grouping.
func refChainedJoinIntersection(abPairs, bcPairs []Pair, maxLen int) []Triple {
	cByB := refGroupRightsByLeft(bcPairs, maxLen)
	var out []Triple
	for _, pr := range abPairs {
		for _, cp := range cByB[pr.Right] {
			out = append(out, Triple{A: pr.Left, B: pr.Right, C: cp})
		}
	}
	return out
}

// poolPairs draws n pairs whose components come from pools of nl and nr
// points, so that co-located duplicates — equal components, equal pairs —
// are the rule, not the exception.
func poolPairs(rng *rand.Rand, n, nl, nr int) []Pair {
	pt := func(m int) geom.Point { return geom.Point{X: float64(rng.Intn(m)), Y: float64(rng.Intn(2))} }
	out := make([]Pair, n)
	for i := range out {
		out[i] = Pair{Left: pt(nl), Right: pt(nr)}
	}
	return out
}

// neighborhoodRuns builds (b, c) pairs the way a kNN-join over a B holding
// co-located duplicates does: every b instance contributes the run of its
// b's m neighbors. The runs are interleaved pair by pair, each keeping its
// own order — more than a join does, which emits every run whole — so the
// cap meets arrivals in any order.
func neighborhoodRuns(rng *rand.Rand, distinct, m int) []Pair {
	var runs [][]Pair
	for i := 0; i < distinct; i++ {
		b := geom.Point{X: float64(i), Y: -1}
		run := make([]Pair, m)
		for j := range run {
			run[j] = Pair{Left: b, Right: geom.Point{X: float64(rng.Intn(5)), Y: float64(j)}}
		}
		for copies := 1 + rng.Intn(3); copies > 0; copies-- {
			runs = append(runs, run)
		}
	}
	var out []Pair
	for len(runs) > 0 {
		i := rng.Intn(len(runs))
		out = append(out, runs[i][0])
		if runs[i] = runs[i][1:]; len(runs[i]) == 0 {
			runs = slices.Delete(runs, i, i+1)
		}
	}
	return out
}

func TestIntersectOnBOrderExact(t *testing.T) {
	b1, b2 := geom.Point{X: 1, Y: 1}, geom.Point{X: 2, Y: 2}
	a1, a2, c1, c2 := geom.Point{X: 10}, geom.Point{X: 11}, geom.Point{X: 20}, geom.Point{X: 21}
	dupAB := []Pair{{a1, b1}, {a2, b2}, {a1, b1}, {a2, b1}}
	dupCB := []Pair{{c1, b1}, {c2, b1}, {c1, b1}, {c2, b2}, {c1, geom.Point{X: 9}}}
	cases := map[string][2][]Pair{
		"co-located duplicates": {dupAB, dupCB},
		"empty ab":              {nil, dupCB},
		"empty cb":              {dupAB, nil},
		"both empty":            {nil, {}},
		"no shared b":           {dupAB[1:2], dupCB[:3]},
	}
	rng := rand.New(rand.NewSource(1301))
	for i := 0; i < 40; i++ {
		nb := 1 + rng.Intn(12)
		cases[fmt.Sprintf("random %d", i)] = [2][]Pair{
			poolPairs(rng, rng.Intn(60), 6, nb), poolPairs(rng, rng.Intn(90), 6, nb)}
	}
	for name, in := range cases {
		got, want := IntersectOnB(in[0], in[1]), refIntersectOnB(in[0], in[1])
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: IntersectOnB differs from the map-of-slices body:\ngot  %v\nwant %v", name, got, want)
		}
	}
}

// TestGroupOnCapOrderExact holds the chained QEPs' grouping to the former
// one: QEP1 groups (B ⋈kNN C) under its own b's, QEP2 under the first
// join's; both keep each b's first maxLen c's in pair order.
func TestGroupOnCapOrderExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1302))
	for trial := 0; trial < 30; trial++ {
		m := 1 + rng.Intn(4)
		bc := neighborhoodRuns(rng, rng.Intn(8), m)
		if trial == 0 {
			bc = nil
		}
		ref := refGroupRightsByLeft(bc, m)

		self := groupOn(indexB(bc, onLeft), bc, onLeft, m)
		if len(self.ids) != len(ref) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(self.ids), len(ref))
		}
		for b, want := range ref {
			if got := self.of(b); !slices.Equal(got, want) {
				t.Fatalf("trial %d: group of %v = %v, want %v", trial, b, got, want)
			}
		}

		// The first join's b's: some with neighborhoods, some without.
		var ab []Pair
		for i := rng.Intn(20); i > 0; i-- {
			ab = append(ab, Pair{Left: geom.Point{X: float64(rng.Intn(4))}, Right: geom.Point{X: float64(rng.Intn(10)), Y: -1}})
		}
		got := joinOnB(nil, ab, groupOn(indexB(ab, onRight), bc, onLeft, m))
		if want := refChainedJoinIntersection(ab, bc, m); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: QEP2 rows differ from the map-of-slices body:\ngot  %v\nwant %v", trial, got, want)
		}
	}
}
