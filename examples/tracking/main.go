// Fleet tracking — a two-kNN-select answer kept current over a mutable
// relation (the paper's Section 7 names continuous two-kNN queries as future
// work; this example re-runs the query after each batch of updates).
//
// A dispatch service tracks taxis on the road network and maintains the
// taxis that are simultaneously among the 20 nearest to the central station
// AND among the 40 nearest to the market plaza — the cabs that can plausibly
// serve either pickup next. Vehicle movement comes from the
// BerlinMOD-substitute traffic simulation. Vehicle i is the relation's
// stable ID i; every tick, each moved vehicle is updated in place by ID, the
// two-kNN-select is re-run on the new snapshot, and the cabs that entered or
// left the answer are counted.
//
//	go run ./examples/tracking
package main

import (
	"fmt"
	"log"

	twoknn "repro"
	"repro/internal/berlinmod"
)

func main() {
	sim, err := berlinmod.NewSimulation(berlinmod.Config{
		Network:  berlinmod.NetworkConfig{Seed: 41},
		Vehicles: 400,
		Seed:     42,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Let the fleet disperse before monitoring starts.
	for i := 0; i < 10; i++ {
		sim.Step()
	}
	positions := sim.Positions()

	// NewRelation numbers points by input position, so vehicle i is ID i.
	rel, err := twoknn.NewRelation("taxis", positions, twoknn.WithBounds(sim.Network().Bounds()))
	if err != nil {
		log.Fatal(err)
	}

	station := twoknn.Point{X: 5000, Y: 5000}
	plaza := twoknn.Point{X: 5500, Y: 5200}
	answer := func() []twoknn.Point {
		cabs, err := twoknn.TwoSelects(rel, station, 20, plaza, 40)
		if err != nil {
			log.Fatal(err)
		}
		twoknn.SortPoints(cabs)
		return cabs
	}
	current := answer()
	fmt.Printf("monitoring %d taxis; initial answer: %d cabs near both station and plaza\n",
		rel.Len(), len(current))

	totalChanges := 0
	for tick := 1; tick <= 30; tick++ {
		sim.Step()
		next := sim.Positions()
		moved := 0
		for i, to := range next {
			if positions[i] != to {
				rel.Update(int32(i), to)
				moved++
			}
		}
		positions = next

		prev := current
		current = answer()
		changes := changed(prev, current)
		totalChanges += changes
		fmt.Printf("tick %2d: %3d location updates, %d answer changes\n", tick, moved, changes)
	}

	fmt.Printf("\nafter 30 ticks: %d cabs in the answer, %d changes total\n", len(current), totalChanges)
	for i, p := range current {
		if i == 8 {
			fmt.Printf("  ... (%d more)\n", len(current)-8)
			break
		}
		fmt.Printf("  cab at %v (station %.0f, plaza %.0f)\n", p, p.Dist(station), p.Dist(plaza))
	}
}

// changed counts the rows that left or entered the answer between two
// canonically sorted answers, by a merge over them as multisets (co-located
// cabs are separate rows).
func changed(prev, next []twoknn.Point) int {
	n, i, j := 0, 0, 0
	for i < len(prev) && j < len(next) {
		switch {
		case prev[i] == next[j]:
			i++
			j++
		case prev[i].Less(next[j]):
			n++
			i++
		default:
			n++
			j++
		}
	}
	return n + len(prev) - i + len(next) - j
}
