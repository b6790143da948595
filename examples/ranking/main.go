// Fleet dispatch: rank uncertain moving objects by expected proximity.
// Taxi positions are known only up to GPS noise plus dead-reckoning
// drift since the last ping (moving-object databases are the classic
// motivation for uncertain data, cf. Wolfson et al.). A dispatcher
// needs the cabs ordered by how close they are to a pickup point — an
// expected-rank ranking query (Corollary 6), with bounds that quantify
// how confident the ordering is.
//
//	go run ./examples/ranking
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"probprune"
)

func main() {
	rng := rand.New(rand.NewSource(5))

	// 250 cabs on a 10km × 10km grid (coordinates in km). Position
	// uncertainty grows with seconds since the last GPS ping.
	db := make(probprune.Database, 0, 250)
	for i := 0; i < 250; i++ {
		pos := probprune.Point{rng.Float64() * 10, rng.Float64() * 10}
		sincePing := rng.Float64() * 30 // seconds
		drift := 0.01 + 0.004*sincePing // km
		region := probprune.Rect{
			Min: probprune.Point{pos[0] - drift, pos[1] - drift},
			Max: probprune.Point{pos[0] + drift, pos[1] + drift},
		}
		cab, err := probprune.Realize(i, probprune.UniformBox{Rect: region}, 60, rng)
		if err != nil {
			log.Fatal(err)
		}
		db = append(db, cab)
	}

	pickup := probprune.PointObject(-1, probprune.Point{5.0, 5.0})
	engine := probprune.NewEngine(db, probprune.Options{MaxIterations: 6})

	ranked, err := engine.RankByExpectedRankCtx(context.Background(), pickup)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cabs by expected proximity rank to the pickup at (5.0, 5.0):")
	for i, r := range ranked[:8] {
		c := r.Object.Centroid()
		certainty := "tight"
		if r.ExpectedRankUB-r.ExpectedRankLB > 0.5 {
			certainty = "uncertain"
		}
		fmt.Printf("  %d. cab %3d near (%.2f, %.2f): E[rank] in [%.2f, %.2f] (%s)\n",
			i+1, r.Object.ID, c[0], c[1], r.ExpectedRankLB, r.ExpectedRankUB, certainty)
	}

	// Dispatch decision: does the front-runner beat the runner-up in
	// every consistent assignment of the bounds?
	if len(ranked) >= 2 && ranked[0].ExpectedRankUB < ranked[1].ExpectedRankLB {
		fmt.Println("dispatch is unambiguous: the top cab wins under any resolution of the bounds")
	} else {
		fmt.Println("dispatch is ambiguous: refine further or ping the top cabs for fresh positions")
	}
}
