// Command simmon is a miniature simulation monitor: it runs a deforming
// mesh simulation and, between time steps, executes the paper's
// neuroscience monitoring use cases (structural validation, mesh quality,
// visualization) with OCTOPUS, printing per-step metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"octopus/internal/core"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/sim"
	"octopus/internal/workload"
)

func main() {
	dataset := flag.String("dataset", string(meshgen.NeuroL2), "dataset id")
	steps := flag.Int("steps", 20, "simulation time steps")
	scale := flag.Float64("scale", meshgen.Scale(), "dataset scale factor")
	flag.Parse()

	id := meshgen.Dataset(*dataset)
	m, err := meshgen.Build(id, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	stats := mesh.ComputeStats(m)
	fmt.Printf("dataset %s: %v\n", id, stats)

	deformer, err := sim.DefaultDeformer(id, sim.DefaultAmplitude)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	simulation := sim.New(m, deformer)
	engine := core.New(m)
	gen := workload.NewGenerator(m, 4096, time.Now().UnixNano())
	benchmarks := workload.PaperBenchmarks()

	fmt.Printf("%5s %-28s %8s %10s %12s\n", "step", "monitor", "queries", "results", "time")
	for step := 0; step < *steps; step++ {
		simulation.Step()
		engine.Step()
		mb := benchmarks[step%len(benchmarks)]
		queries := gen.StepQueries(mb)

		start := time.Now()
		var out []int32
		results := 0
		for _, q := range queries {
			out = engine.Query(q, out[:0])
			results += len(out)
		}
		fmt.Printf("%5d %-28s %8d %10d %12v\n",
			step, mb.Name, len(queries), results, time.Since(start))
	}

	s := engine.Stats()
	fmt.Printf("\ntotals: %d queries, %d results\n", s.Queries, s.Results)
	fmt.Printf("phases: probe %v, walk %v (%d walks, %d stalled into the scan), crawl %v\n",
		s.SurfaceProbe, s.DirectedWalk, s.DirectedWalks, s.WalkStalls, s.Crawl)
	fmt.Printf("memory: %.2f MB auxiliary\n", float64(engine.MemoryFootprint())/(1<<20))
}
