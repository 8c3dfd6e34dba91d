// Animation rendering: the non-scientific use case of §VIII — retrieving
// the view frustum's part of deforming volumetric models (horse gallop,
// facial expression, camel compress analogs). Speedup over the linear scan
// tracks the inverse surface-to-volume ratio across the three sequences.
package main

import (
	"fmt"
	"math/rand"
	"time"

	"octopus"
	"octopus/datasets"
)

func main() {
	fmt.Printf("%-20s %6s %8s %12s %12s %9s\n",
		"sequence", "steps", "S:V", "scan/step", "octopus/step", "speedup")

	for _, name := range []string{datasets.Horse, datasets.Face, datasets.Camel} {
		m, err := datasets.Build(name, 1)
		if err != nil {
			panic(err)
		}
		steps, err := datasets.AnimationSteps(name)
		if err != nil {
			panic(err)
		}
		deformer, err := datasets.NewDeformer(name, datasets.DefaultAmplitude)
		if err != nil {
			panic(err)
		}
		stats := octopus.ComputeMeshStats(m)

		eng := octopus.New(m)
		scan := octopus.NewLinearScan(m)
		r := rand.New(rand.NewSource(3))
		diag := m.Bounds().Size().Len()

		var octTotal, scanTotal time.Duration
		var out []int32
		for step := 0; step < steps; step++ {
			deformer.Step(step, m.Positions())
			eng.Step() // required after in-place writes: refits the probe boxes

			// A camera frustum approximated by its bounding box, plus a
			// few detail queries around random vertices.
			boxes := []octopus.AABB{
				octopus.BoxAround(m.Bounds().Center(), diag*0.05),
			}
			for i := 0; i < 14; i++ {
				center := m.Position(int32(r.Intn(m.NumVertices())))
				boxes = append(boxes, octopus.BoxAround(center, diag*0.02))
			}
			start := time.Now()
			for _, q := range boxes {
				out = eng.Query(q, out[:0])
			}
			octTotal += time.Since(start)

			start = time.Now()
			for _, q := range boxes {
				out = scan.Query(q, out[:0])
			}
			scanTotal += time.Since(start)
		}
		fmt.Printf("%-20s %6d %8.3f %12v %12v %8.1fx\n",
			name, steps, stats.SurfaceRatio,
			scanTotal/time.Duration(steps), octTotal/time.Duration(steps),
			float64(scanTotal)/float64(octTotal))
	}
	fmt.Println("\n(the lowest S:V sequence should show the largest speedup)")
}
