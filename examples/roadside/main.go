// Roadside assistance — the paper's Section 1 motivating scenario.
//
// A car breaks down. The driver needs a (mechanic shop, hotel) pair where
// the hotel is among the 2 closest hotels to the mechanic shop AND among
// the 2 closest hotels to a specific shopping center (to shop while the car
// is repaired). That is a kNN-join with a kNN-select on its inner relation:
//
//	(Mechanics ⋈kNN Hotels) ∩ (Mechanics × σ_{2,ShoppingCenter}(Hotels))
//
// The example demonstrates three things on a simulated city:
//
//  1. the classical optimizer rewrite (push the select below the join)
//     returns a different answer than the correct plans run beside it;
//
//  2. the conceptual plan, the Counting algorithm, the Block-Marking
//     algorithm and the default that runs both prunes all return identical
//     pairs;
//
//  3. the optimized algorithms do far less work (operation counters).
//
//     go run ./examples/roadside
package main

import (
	"fmt"
	"log"
	"time"

	twoknn "repro"
	"repro/internal/berlinmod"
	"repro/internal/core"
	"repro/internal/index/grid"
)

func main() {
	// Mechanics and hotels drawn from the BerlinMOD-substitute city
	// simulation, so they concentrate along the road network.
	mechanicPts, err := berlinmod.Points(30000, berlinmod.Config{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	hotelPts, err := berlinmod.Points(20000, berlinmod.Config{Seed: 22})
	if err != nil {
		log.Fatal(err)
	}

	mechanics, err := twoknn.NewRelation("mechanics", mechanicPts)
	if err != nil {
		log.Fatal(err)
	}
	hotels, err := twoknn.NewRelation("hotels", hotelPts)
	if err != nil {
		log.Fatal(err)
	}
	shoppingCenter := twoknn.Point{X: 5000, Y: 5000}

	// 1. The invalid rewrite changes the answer: below the inner relation
	// the select leaves the join only the selected hotels, so every mechanic
	// pairs with them. The wrong plan is not part of the public API; rebuild
	// core-level relations over the same points to run it.
	build := func(pts []twoknn.Point) (*core.Relation, error) {
		ix, err := grid.New(pts, grid.Options{})
		if err != nil {
			return nil, err
		}
		return core.NewRelation(ix), nil
	}
	var rels [2]*core.Relation
	for i, pts := range [][]twoknn.Point{mechanicPts, hotelPts} {
		if rels[i], err = build(pts); err != nil {
			log.Fatal(err)
		}
	}
	pushed, err := core.InvalidInnerPushdown(rels[0], rels[1], shoppingCenter, 2, 2, build, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-32s %6d pairs (wrong)\n\n", "select pushed below the join", len(pushed))

	// 2 & 3. Evaluate with every strategy and compare.
	type strategy struct {
		name string
		alg  twoknn.Algorithm
	}
	strategies := []strategy{
		{"conceptual (correct but slow)", twoknn.AlgorithmConceptual},
		{"counting", twoknn.AlgorithmCounting},
		{"block-marking", twoknn.AlgorithmBlockMarking},
		{"auto (block-marking + counting)", twoknn.AlgorithmAuto},
	}
	var first []twoknn.Pair
	for _, s := range strategies {
		var st twoknn.Stats
		start := time.Now()
		pairs, err := twoknn.SelectInnerJoin(mechanics, hotels, shoppingCenter, 2, 2,
			twoknn.WithAlgorithm(s.alg), twoknn.WithStats(&st))
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		twoknn.SortPairs(pairs)
		fmt.Printf("%-32s %6d pairs in %10v | %s\n", s.name, len(pairs), elapsed, &st)

		if first == nil {
			first = pairs
			continue
		}
		if len(pairs) != len(first) {
			log.Fatalf("strategy %s disagrees: %d vs %d pairs", s.name, len(pairs), len(first))
		}
		for i := range pairs {
			if pairs[i] != first[i] {
				log.Fatalf("strategy %s disagrees at pair %d", s.name, i)
			}
		}
	}
	fmt.Println("\nall strategies returned identical pairs ✓")
	if len(pushed) == len(first) {
		log.Fatal("the pushed-down plan agrees with the correct one on this data")
	}

	if len(first) > 0 {
		fmt.Println("\nbest options for the driver (mechanic, hotel):")
		for i, pr := range first {
			if i == 5 {
				break
			}
			fmt.Printf("  mechanic %v  ->  hotel %v\n", pr.Left, pr.Right)
		}
	}
}
