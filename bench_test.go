package octopus_test

// One testing.B benchmark per table/figure of the paper's evaluation; each
// runs the corresponding experiment driver end to end (dataset
// construction is memoized per process, the simulation/monitoring loop is
// not). Heavy experiments exceed the default benchtime after a single
// iteration, so b.N stays 1. cmd/octopus-bench runs the same drivers with
// configurable parameters and prints the full tables.

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"octopus"
	"octopus/internal/bench"
	"octopus/internal/meshgen"
	"octopus/internal/workload"
)

// benchConfig sizes experiments for benchmark runs: long enough for stable
// shape, short enough that the full -bench=. sweep stays tractable.
func benchConfig() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Steps = 12
	cfg.QueriesPerStep = 8
	return cfg
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := bench.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4DatasetCharacterization(b *testing.B) { runExperiment(b, "fig4") }
func BenchmarkFig5MicrobenchmarkTable(b *testing.B)     { runExperiment(b, "fig5") }
func BenchmarkFig6AllEngines(b *testing.B)              { runExperiment(b, "fig6") }
func BenchmarkFig7abDetailFixedQuery(b *testing.B)      { runExperiment(b, "fig7ab") }
func BenchmarkFig7cdDetailFixedResults(b *testing.B)    { runExperiment(b, "fig7cd") }
func BenchmarkFig7efTimeSteps(b *testing.B)             { runExperiment(b, "fig7ef") }
func BenchmarkFig7ghSelectivity(b *testing.B)           { runExperiment(b, "fig7gh") }
func BenchmarkFig8EarthquakeDatasets(b *testing.B)      { runExperiment(b, "fig8") }
func BenchmarkFig9abConvexEngines(b *testing.B)         { runExperiment(b, "fig9ab") }
func BenchmarkFig9cdGridResolution(b *testing.B)        { runExperiment(b, "fig9cd") }
func BenchmarkFig10OverheadAnalysis(b *testing.B)       { runExperiment(b, "fig10") }
func BenchmarkFig11ModelValidation(b *testing.B)        { runExperiment(b, "fig11") }
func BenchmarkFig12SurfaceApproximation(b *testing.B)   { runExperiment(b, "fig12") }
func BenchmarkFig13HilbertLayout(b *testing.B)          { runExperiment(b, "layout") }
func BenchmarkFig14AnimationDatasets(b *testing.B)      { runExperiment(b, "fig14") }
func BenchmarkFig15AnimationSpeedup(b *testing.B)       { runExperiment(b, "fig15") }

// BenchmarkParallelScaling measures ExecuteBatch throughput against worker
// count on the reference workload (NeuroL3, 0.1% selectivity): per worker
// count, one iteration executes the whole batch. The per-op time of
// workers=N vs workers=1 is the scaling headline. That a batch's results
// equal serial execution is checked by the race-enabled batch-vs-brute-force
// tests (parallel_test.go), not here.
func BenchmarkParallelScaling(b *testing.B) {
	m, err := meshgen.BuildCached(meshgen.NeuroL3, 1)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGenerator(m, 4096, 42)
	queries := gen.UniformQueries(256, 0.001)
	eng := octopus.New(m)

	for _, workers := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				octopus.ExecuteBatch(eng, queries, workers)
			}
			b.ReportMetric(float64(len(queries))*float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}

// workerCounts returns the deduplicated, ascending worker counts
// BenchmarkParallelScaling sweeps: 1, 2, 4 and GOMAXPROCS.
func workerCounts() []int {
	set := map[int]bool{1: true, 2: true, 4: true, runtime.GOMAXPROCS(0): true}
	counts := make([]int, 0, len(set))
	for w := range set {
		counts = append(counts, w)
	}
	sort.Ints(counts)
	return counts
}

// Micro-benchmarks: single-query costs on the reference dataset, the raw
// numbers behind the figures.

func referenceMeshAndQueries(b *testing.B, sel float64) (*octopus.Mesh, []octopus.AABB) {
	b.Helper()
	m, err := meshgen.BuildCached(meshgen.NeuroL3, 1)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGenerator(m, 4096, 42)
	return m, gen.UniformQueries(64, sel)
}

func BenchmarkQueryOctopusSel0_1(b *testing.B) {
	m, queries := referenceMeshAndQueries(b, 0.001)
	eng := octopus.New(m)
	var out []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = eng.Query(queries[i%len(queries)], out[:0])
	}
}

func BenchmarkQueryOctopusSel0_01(b *testing.B) {
	m, queries := referenceMeshAndQueries(b, 0.0001)
	eng := octopus.New(m)
	var out []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = eng.Query(queries[i%len(queries)], out[:0])
	}
}

func BenchmarkQueryLinearScanSel0_1(b *testing.B) {
	m, queries := referenceMeshAndQueries(b, 0.001)
	eng := octopus.NewLinearScan(m)
	var out []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = eng.Query(queries[i%len(queries)], out[:0])
	}
}

func BenchmarkQueryOctreeSel0_1(b *testing.B) {
	m, queries := referenceMeshAndQueries(b, 0.001)
	eng := octopus.NewOctree(m, 0)
	var out []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = eng.Query(queries[i%len(queries)], out[:0])
	}
}

func BenchmarkMaintenanceOctreeRebuild(b *testing.B) {
	m, _ := referenceMeshAndQueries(b, 0.001)
	eng := octopus.NewOctree(m, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

func BenchmarkMaintenanceLURTreeStep(b *testing.B) {
	m, _ := referenceMeshAndQueries(b, 0.001)
	eng := octopus.NewLURTree(m, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

func BenchmarkMaintenanceOctopusStep(b *testing.B) {
	m, _ := referenceMeshAndQueries(b, 0.001)
	eng := octopus.New(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step() // the point: this is free
	}
}
