// Quickstart: build relations, run each of the library's two-kNN-predicate
// queries once, and print what came back.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	twoknn "repro"
)

func main() {
	// A toy city: restaurants and hotels scattered over a 1000x1000 area.
	rng := rand.New(rand.NewSource(7))
	random := func(n int) []twoknn.Point {
		pts := make([]twoknn.Point, n)
		for i := range pts {
			pts[i] = twoknn.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		}
		return pts
	}

	restaurants, err := twoknn.NewRelation("restaurants", random(5000))
	if err != nil {
		log.Fatal(err)
	}
	hotels, err := twoknn.NewRelation("hotels", random(3000))
	if err != nil {
		log.Fatal(err)
	}

	center := twoknn.Point{X: 500, Y: 500}

	// Single-predicate building blocks.
	nearest, err := hotels.KNNSelect(center, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("3 hotels nearest to the city center:")
	for _, h := range nearest {
		fmt.Printf("  %v (%.1f away)\n", h, h.Dist(center))
	}

	// Two kNN predicates: restaurants joined with their 2 nearest hotels,
	// keeping only hotels that are also among the 5 nearest to the center.
	// Pushing that select below the join would be wrong; the library prunes
	// with Block-Marking and then Counting instead — ask it to explain.
	var explain string
	pairs, err := twoknn.SelectInnerJoin(restaurants, hotels, center, 2, 5,
		twoknn.WithExplain(&explain))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nselect-inner-join: %d (restaurant, hotel) pairs\n", len(pairs))
	fmt.Println(explain)

	// Two kNN-selects: points near BOTH focal points.
	work := twoknn.Point{X: 480, Y: 520}
	both, err := twoknn.TwoSelects(hotels, center, 20, work, 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hotels among 20-NN of center AND 50-NN of work: %d\n", len(both))

	// Chained joins: restaurant -> 2 nearest hotels -> 2 nearest restaurants.
	triples, err := twoknn.ChainedJoins(restaurants, hotels, restaurants, 2, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chained join triples: %d\n", len(triples))
}
