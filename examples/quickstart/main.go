// Quickstart: build a small uncertain database, pose a probabilistic
// threshold kNN query against it, and inspect the probability bounds
// the pruning framework derives.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"probprune"
)

func main() {
	// A synthetic uncertain database: 1,000 objects in the unit square,
	// each an axis-aligned rectangle of side up to 0.02 carrying a
	// uniform density, discretized to 100 samples (the paper's model).
	db, err := probprune.Synthetic(probprune.SyntheticConfig{
		N:         1000,
		MaxExtent: 0.02,
		Samples:   100,
		Seed:      7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The engine indexes the objects' uncertainty regions in an R-tree
	// and runs iterative domination count approximation per candidate.
	engine := probprune.NewEngine(db, probprune.Options{MaxIterations: 6})

	// "Which objects are among the 5 nearest neighbors of (0.5, 0.5)
	// with probability at least 50%?"
	queryPoint := probprune.PointObject(-1, probprune.Point{0.5, 0.5})
	const k, tau = 5, 0.5
	matches, err := engine.KNNCtx(context.Background(), queryPoint, k, tau)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("probabilistic %d-NN of (0.5, 0.5) with threshold %.0f%%:\n", k, tau*100)
	results, undecided, iterations := 0, 0, 0
	for _, m := range matches {
		iterations += m.Iterations
		if !m.Decided {
			undecided++
			continue
		}
		if m.IsResult {
			results++
			fmt.Printf("  object %4d: P(kNN) in [%.3f, %.3f]\n",
				m.Object.ID, m.Prob.LB, m.Prob.UB)
		}
	}
	fmt.Printf("%d results, %d undecided candidates\n", results, undecided)
	fmt.Printf("refinement iterations across all %d candidates: %d "+
		"(the filter step decides almost every candidate geometrically)\n",
		len(matches), iterations)
}
