// Sensor monitoring: a classic uncertain-database scenario (the paper's
// introduction cites sensor databases as a motivating application).
// Each sensor reports a (temperature, humidity) reading with known
// measurement noise, so its true state is an uncertain 2-D attribute
// vector. When a new calibration probe is installed, operators want the
// sensors for which the probe is among their k most similar peers — a
// probabilistic reverse kNN query (Corollary 5): those are the sensors
// whose readings the probe can cross-validate.
//
//	go run ./examples/sensors
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"probprune"
)

func main() {
	rng := rand.New(rand.NewSource(21))

	// 400 sensors: true states clustered in three operating regimes;
	// per-sensor noise depends on its hardware revision.
	regimes := []struct{ t, h float64 }{
		{22, 40}, // office floors
		{17, 60}, // cold aisle
		{30, 30}, // rooftop
	}
	db := make(probprune.Database, 0, 400)
	for i := 0; i < 400; i++ {
		reg := regimes[rng.Intn(len(regimes))]
		mean := probprune.Point{
			reg.t + rng.NormFloat64()*2.0,
			reg.h + rng.NormFloat64()*5.0,
		}
		noise := 0.2 + rng.Float64()*0.6 // hardware-dependent σ
		region := probprune.Rect{
			Min: probprune.Point{mean[0] - 3*noise, mean[1] - 3*noise},
			Max: probprune.Point{mean[0] + 3*noise, mean[1] + 3*noise},
		}
		sensor, err := probprune.Realize(i, probprune.TruncatedGaussian{
			Mean:   mean,
			Sigma:  []float64{noise, noise},
			Region: region,
		}, 80, rng)
		if err != nil {
			log.Fatal(err)
		}
		db = append(db, sensor)
	}

	// The probe sits in the office regime; its own reading is uncertain
	// too (it has not been calibrated yet — that is the point).
	probe, err := probprune.Realize(-1, probprune.TruncatedGaussian{
		Mean:   probprune.Point{22.5, 41},
		Sigma:  []float64{0.4, 0.4},
		Region: probprune.Rect{Min: probprune.Point{21.3, 39.8}, Max: probprune.Point{23.7, 42.2}},
	}, 80, rng)
	if err != nil {
		log.Fatal(err)
	}

	engine := probprune.NewEngine(db, probprune.Options{MaxIterations: 6})

	// Which sensors have the probe among their 3 most similar peers
	// with probability at least 25%?
	const k, tau = 3, 0.25
	matches, err := engine.RKNNCtx(context.Background(), probe, k, tau)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("sensors that can use the probe for cross-validation (R%dNN, τ=%.0f%%):\n", k, tau*100)
	count := 0
	for _, m := range matches {
		if !m.Decided || !m.IsResult {
			continue
		}
		count++
		c := m.Object.Centroid()
		fmt.Printf("  sensor %3d at (%.1f°C, %.0f%%RH): P in [%.3f, %.3f]\n",
			m.Object.ID, c[0], c[1], m.Prob.LB, m.Prob.UB)
	}
	fmt.Printf("%d of %d sensors qualify\n", count, len(db))
}
