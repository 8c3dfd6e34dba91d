// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's evaluation (Figures 4–15). Each
// experiment driver builds the datasets, runs the simulation/monitoring
// loop of Figure 1(e) against one or more query engines, and returns
// tables whose rows mirror the paper's reported series.
//
// The engines come from one table, AllEngines, which fixes each engine's
// name and benchmark tuning; an experiment selects its engines from it by
// name (Engines). The measurement loop is one function, Run: every step
// deforms the mesh, then each engine runs its maintenance and the step's
// range queries.
//
// Timing follows the paper's protocol (§V-A): the total query response
// time includes per-step index maintenance (Engine.Step) and query
// execution, but not one-time preprocessing (engine construction), which
// is reported separately.
package bench

import (
	"time"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/sim"
	"octopus/internal/workload"
)

// Config controls experiment scale so the full suite can run both in quick
// CI mode and at closer-to-paper sizes.
type Config struct {
	// Scale is the dataset refinement factor (>= 1); meshgen.Scale() reads
	// the OCTOPUS_SCALE environment default.
	Scale float64
	// Steps is the number of simulation time steps (the paper uses 60).
	Steps int
	// QueriesPerStep is the monitoring query count per step (paper: 15).
	QueriesPerStep int
	// Selectivity is the default query selectivity (paper: 0.1%).
	Selectivity float64
	// Seed fixes workload randomness.
	Seed int64
}

// DefaultConfig returns the paper's experiment parameters at laptop scale.
func DefaultConfig() Config {
	return Config{Scale: 1, Steps: 60, QueriesPerStep: 15, Selectivity: 0.001, Seed: 42}
}

// QuickConfig returns a reduced configuration for tests.
func QuickConfig() Config {
	return Config{Scale: 1, Steps: 6, QueriesPerStep: 4, Selectivity: 0.001, Seed: 42}
}

// EngineResult is one engine's measurement over a full simulation run.
type EngineResult struct {
	Engine           string
	Preprocess       time.Duration // one-time build, reported separately
	Maintenance      time.Duration // sum of Step() calls
	QueryTime        time.Duration // sum of Query() calls
	TotalResponse    time.Duration // Maintenance + QueryTime
	FootprintBytes   int64         // auxiliary structures after the run
	Results          int64         // total result vertices returned
	Queries          int64
	MaintenanceShare float64 // Maintenance / TotalResponse
}

// RunResult bundles the per-engine results of one simulation run.
type RunResult struct {
	Engines []EngineResult
	// Built holds the engines, in factory order, so a driver can read
	// their own counters after the run.
	Built []query.ParallelKNNEngine
	// StepQueries records the number of range queries executed per step.
	StepQueries []int
}

// Run executes the full measurement loop: build engines (preprocessing),
// then for each time step deform the mesh in place, let every engine
// perform maintenance, and execute the step's queries on every engine.
// ranges is called once per step to produce that step's range boxes
// (shared across engines for fairness).
func Run(m *mesh.Mesh, deformer sim.Deformer, steps int,
	ranges func(step int) []geom.AABB, factories []EngineFactory) RunResult {

	engines := make([]query.ParallelKNNEngine, len(factories))
	results := make([]EngineResult, len(factories))
	for i, f := range factories {
		start := time.Now()
		engines[i] = f.New(m)
		results[i] = EngineResult{Engine: f.Name, Preprocess: time.Since(start)}
	}

	simulation := sim.New(m, deformer)
	var out []int32
	var stepQueries []int

	for step := 0; step < steps; step++ {
		simulation.Step()
		queries := ranges(step)
		stepQueries = append(stepQueries, len(queries))

		for i, eng := range engines {
			start := time.Now()
			eng.Step()
			results[i].Maintenance += time.Since(start)

			start = time.Now()
			for _, q := range queries {
				out = eng.Query(q, out[:0])
				results[i].Results += int64(len(out))
			}
			results[i].QueryTime += time.Since(start)
			results[i].Queries += int64(len(queries))
		}
	}

	for i, eng := range engines {
		results[i].TotalResponse = results[i].Maintenance + results[i].QueryTime
		results[i].FootprintBytes = eng.MemoryFootprint()
		if results[i].TotalResponse > 0 {
			results[i].MaintenanceShare =
				float64(results[i].Maintenance) / float64(results[i].TotalResponse)
		}
	}
	return RunResult{Engines: results, Built: engines, StepQueries: stepQueries}
}

// scene is one dataset ready for Run: the memoized mesh (every run
// deforms it in place), its default deformer, and a workload generator
// seeded from the config.
type scene struct {
	m        *mesh.Mesh
	deformer sim.Deformer
	gen      *workload.Generator
}

// loadScene builds (or recalls) ds at cfg.Scale with a fresh deformer and
// generator, so every run over it draws the same query sequence.
func loadScene(ds meshgen.Dataset, cfg Config) (scene, error) {
	m, err := meshgen.BuildCached(ds, cfg.Scale)
	if err != nil {
		return scene{}, err
	}
	deformer, err := sim.DefaultDeformer(ds, sim.DefaultAmplitude)
	if err != nil {
		return scene{}, err
	}
	return scene{m, deformer, workload.NewGenerator(m, 4096, cfg.Seed)}, nil
}

// UniformQueryStream returns a ranges function for Run producing n fresh
// uniform-random queries of the given selectivity per step, the standard
// workload of the sensitivity analysis.
func UniformQueryStream(g *workload.Generator, n int, selectivity float64) func(int) []geom.AABB {
	return func(int) []geom.AABB {
		return g.UniformQueries(n, selectivity)
	}
}

// MicrobenchmarkStream returns a ranges function for Run producing each step's
// queries for one of the paper's Figure 5 microbenchmarks.
func MicrobenchmarkStream(g *workload.Generator, mb workload.Microbenchmark) func(int) []geom.AABB {
	return func(int) []geom.AABB {
		return g.StepQueries(mb)
	}
}

// Speedup returns how many times faster a is than b (b.Total / a.Total).
func Speedup(a, b EngineResult) float64 {
	if a.TotalResponse == 0 {
		return 0
	}
	return float64(b.TotalResponse) / float64(a.TotalResponse)
}
