// Fleet tracking — continuous two-kNN-select monitoring (the paper's
// Section 7 future-work direction, implemented in internal/continuous).
//
// A dispatch service tracks taxis on the road network and continuously
// maintains the set of taxis that are simultaneously among the 20 nearest
// to the central station AND among the 40 nearest to the market plaza — the
// cabs that can plausibly serve either pickup next. Vehicle movement comes from
// the BerlinMOD-substitute traffic simulation; every tick, each vehicle's
// location update is streamed into the monitored relation, and the monitor
// emits incremental Added/Removed events instead of recomputing the answer.
//
//	go run ./examples/tracking
package main

import (
	"fmt"
	"log"

	"repro/internal/berlinmod"
	"repro/internal/continuous"
	"repro/internal/geom"
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

	rel, err := continuous.NewRelation(sim.Network().Bounds(), positions)
	if err != nil {
		log.Fatal(err)
	}

	station := geom.Point{X: 5000, Y: 5000}
	plaza := geom.Point{X: 5500, Y: 5200}
	monitor, err := rel.MonitorTwoSelects(station, 20, plaza, 40)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("monitoring %d taxis; initial answer: %d cabs near both station and plaza\n",
		rel.Len(), len(monitor.Current()))

	totalEvents := 0
	for tick := 1; tick <= 30; tick++ {
		sim.Step()
		next := sim.Positions()
		moved := 0
		for i, from := range positions {
			to := next[i]
			if from == to {
				continue
			}
			if err := rel.Move(from, to); err != nil {
				log.Fatal(err)
			}
			moved++
		}
		positions = next

		events := monitor.Drain()
		totalEvents += len(events)
		fmt.Printf("tick %2d: %3d location updates, %d answer changes\n", tick, moved, len(events))
	}

	fmt.Printf("\nafter 30 ticks: %d cabs in the answer, %d incremental changes total\n",
		len(monitor.Current()), totalEvents)
	for i, p := range monitor.Current() {
		if i == 8 {
			fmt.Printf("  ... (%d more)\n", len(monitor.Current())-8)
			break
		}
		fmt.Printf("  cab at %v (station %.0f, plaza %.0f)\n", p, p.Dist(station), p.Dist(plaza))
	}
}
