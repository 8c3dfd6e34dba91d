// Neuroscience monitoring: the paper's motivating use case (§III-B). A
// two-neuron mesh is deformed unpredictably each time step (neural
// plasticity); between steps, three monitoring applications — structural
// validation, mesh-quality analysis and visualization — issue range
// queries, answered by OCTOPUS without any index maintenance. The example
// also demonstrates the rare restructuring path: a cell split and a cell
// removal streamed into the surface index as deltas.
package main

import (
	"fmt"
	"math/rand"
	"time"

	"octopus"
	"octopus/datasets"
)

func main() {
	m, err := datasets.Build(datasets.NeuroL2, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("neuron mesh:", octopus.ComputeMeshStats(m))

	deformer, err := datasets.NewDeformer(datasets.NeuroL2, datasets.DefaultAmplitude)
	if err != nil {
		panic(err)
	}

	eng := octopus.New(m)
	scan := octopus.NewLinearScan(m)
	r := rand.New(rand.NewSource(7))
	diag := m.Bounds().Size().Len()

	monitors := []struct {
		name    string
		queries int
		half    float64
	}{
		{"structural validation", 15, diag * 0.015},
		{"mesh quality", 8, diag * 0.010},
		{"visualization", 22, diag * 0.020},
	}

	var octTotal, scanTotal time.Duration
	for step := 0; step < 12; step++ {
		deformer.Step(step, m.Positions()) // massive in-place update
		eng.Step()
		scan.Step()

		mon := monitors[step%len(monitors)]
		var out []int32
		results := 0
		start := time.Now()
		boxes := make([]octopus.AABB, mon.queries)
		for i := range boxes {
			center := m.Position(int32(r.Intn(m.NumVertices())))
			boxes[i] = octopus.BoxAround(center, mon.half)
		}
		for _, q := range boxes {
			out = eng.Query(q, out[:0])
			results += len(out)
		}
		octTime := time.Since(start)
		octTotal += octTime

		start = time.Now()
		for _, q := range boxes {
			out = scan.Query(q, out[:0])
		}
		scanTotal += time.Since(start)

		fmt.Printf("step %2d  %-22s  %2d queries  %6d results  octopus %-10v scan %v\n",
			step, mon.name, mon.queries, results, octTime, time.Since(start))
	}
	fmt.Printf("\ntotal: octopus %v, scan %v (%.1fx)\n",
		octTotal, scanTotal, float64(scanTotal)/float64(octTotal))

	// Rare restructuring: split one cell (adds an interior vertex) and
	// delete another (exposes interior faces). The mesh folds each change
	// into its surface index and component labels itself — slot
	// inserts/deletes, no rebuild — so the engine needs no call.
	if _, _, err := m.SplitCell(0); err != nil {
		panic(err)
	}
	if _, err := m.DeleteCell(1); err != nil {
		panic(err)
	}
	q := octopus.BoxAround(m.Position(0), diag*0.02)
	got, want := eng.Query(q, nil), octopus.BruteForce(m, q)
	fmt.Printf("after restructuring: %d results (ground truth %d)\n", len(got), len(want))
	p := m.Position(0)
	nn, truth := eng.KNN(p, 8, nil), octopus.BruteForceKNN(m, p, 8)
	fmt.Printf("after restructuring: 8-NN %v (ground truth %v)\n", nn, truth)
}
