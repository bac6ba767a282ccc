// Logistics planning — chained and unchained two-join queries (Sections 4.1
// and 4.2 of the paper) on one supply network.
//
// Scenario: a retailer operates stores, depots, and supplier warehouses.
//
//   - Chained (store → depot → warehouse): for each store, its 2 nearest
//     depots, and for each such depot its 2 nearest warehouses — the
//     replenishment paths. (Stores ⋈kNN Depots) then (Depots ⋈kNN
//     Warehouses); the three QEPs of the paper's Figure 13 agree, and the
//     cached nested join is the fast one.
//
//   - Unchained (stores and workshops both anchored to depots): report
//     (store, depot, workshop) triples where the depot is among the 3
//     nearest depots of the store AND among the 3 nearest depots of the
//     workshop — depots that can serve both. Neither join may be evaluated
//     over the other's output; the library evaluates them independently,
//     prunes the second join's outer blocks, then its outer points,
//     against the first join's depots, and picks the join order from
//     cluster coverage.
//
//     go run ./examples/logistics
package main

import (
	"fmt"
	"log"
	"time"

	twoknn "repro"
	"repro/internal/berlinmod"
	"repro/internal/datagen"
)

func main() {
	// Depots and stores follow the city's road network; supplier
	// warehouses cluster in two industrial zones.
	storePts, err := berlinmod.Points(20000, berlinmod.Config{Seed: 31})
	if err != nil {
		log.Fatal(err)
	}
	depotPts, err := berlinmod.Points(10000, berlinmod.Config{Seed: 32})
	if err != nil {
		log.Fatal(err)
	}
	warehousePts, err := datagen.Clustered(datagen.ClusterConfig{
		NumClusters: 2, PointsPerCluster: 400, Radius: 400,
		Bounds: twoknn.NewRect(0, 0, 10000, 10000), Seed: 33,
	})
	if err != nil {
		log.Fatal(err)
	}
	workshopPts, err := datagen.Clustered(datagen.ClusterConfig{
		NumClusters: 3, PointsPerCluster: 300, Radius: 300,
		Bounds: twoknn.NewRect(0, 0, 10000, 10000), Seed: 34,
	})
	if err != nil {
		log.Fatal(err)
	}

	stores, err := twoknn.NewRelation("stores", storePts)
	if err != nil {
		log.Fatal(err)
	}
	depots, err := twoknn.NewRelation("depots", depotPts)
	if err != nil {
		log.Fatal(err)
	}
	warehouses, err := twoknn.NewRelation("warehouses", warehousePts)
	if err != nil {
		log.Fatal(err)
	}
	workshops, err := twoknn.NewRelation("workshops", workshopPts)
	if err != nil {
		log.Fatal(err)
	}

	// --- Chained joins: replenishment paths. ---
	fmt.Println("chained: store -> 2 nearest depots -> 2 nearest warehouses")
	var reference []twoknn.Triple
	for _, qep := range []twoknn.ChainedQEP{
		twoknn.ChainedRightDeep,
		twoknn.ChainedJoinIntersection,
		twoknn.ChainedNestedJoinCached,
	} {
		start := time.Now()
		triples, err := twoknn.ChainedJoins(stores, depots, warehouses, 2, 2,
			twoknn.WithChainedQEP(qep))
		if err != nil {
			log.Fatal(err)
		}
		twoknn.SortTriples(triples)
		fmt.Printf("  %-22s %8d triples in %v\n", qep, len(triples), time.Since(start))
		if reference == nil {
			reference = triples
		} else if !equalTriples(reference, triples) {
			log.Fatalf("QEP %v disagrees with the reference plan", qep)
		}
	}
	fmt.Println("  all chained QEPs agree ✓")

	// --- Unchained joins: depots serving both stores and workshops. ---
	fmt.Println("\nunchained: depots among 3-NN of a store AND 3-NN of a workshop")
	var explain string
	start := time.Now()
	triples, err := twoknn.UnchainedJoins(stores, depots, workshops, 3, 3,
		twoknn.WithExplain(&explain))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d (store, depot, workshop) triples in %v\n\n", len(triples), time.Since(start))
	fmt.Println(explain)
}

func equalTriples(a, b []twoknn.Triple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
