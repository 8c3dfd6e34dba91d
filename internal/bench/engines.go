package bench

import (
	"fmt"
	"slices"

	"octopus/internal/core"
	"octopus/internal/grid"
	"octopus/internal/kdtree"
	"octopus/internal/linearscan"
	"octopus/internal/lurtree"
	"octopus/internal/mesh"
	"octopus/internal/octree"
	"octopus/internal/query"
	"octopus/internal/qutrade"
)

// EngineFactory names one engine and builds it over a mesh; construction
// time is the engine's preprocessing cost.
type EngineFactory struct {
	Name string
	New  func(m *mesh.Mesh) query.ParallelKNNEngine
}

// AllEngines returns the engine table: every engine the experiments
// measure, built with the benchmark's tuning, in the order the
// experiments list them. The scan comes first so an experiment can take
// its speed-ups against it. The hybrid calibrates its cost model on the
// mesh it serves.
func AllEngines() []EngineFactory {
	return []EngineFactory{
		{"LinearScan", func(m *mesh.Mesh) query.ParallelKNNEngine { return linearscan.New(m) }},
		{"OCTOPUS", func(m *mesh.Mesh) query.ParallelKNNEngine { return core.New(crawlReady(m)) }},
		{"OCTOPUS-CON", func(m *mesh.Mesh) query.ParallelKNNEngine { return core.NewCon(crawlReady(m), 0) }},
		{"OCTOPUS-Hybrid", func(m *mesh.Mesh) query.ParallelKNNEngine {
			return core.NewHybrid(crawlReady(m), 0, core.Calibrate(m))
		}},
		{"KD-Tree", func(m *mesh.Mesh) query.ParallelKNNEngine { return kdtree.NewEngine(m, 0) }},
		{"OCTREE", func(m *mesh.Mesh) query.ParallelKNNEngine { return octree.NewEngine(m, 0) }},
		{"LU-Grid", func(m *mesh.Mesh) query.ParallelKNNEngine { return grid.NewLUEngine(m, 4096) }},
		{"LUR-Tree", func(m *mesh.Mesh) query.ParallelKNNEngine { return lurtree.New(m, 0) }},
		{"QU-Trade", func(m *mesh.Mesh) query.ParallelKNNEngine { return qutrade.New(m, 0, 0) }},
	}
}

// crawlReady builds m's block graph, the topology memo the range crawl
// reads, before an OCTOPUS-family engine is built over m: like the
// surface index it is preprocessing, so the first seeded range query of
// a run must not time it (≈ 18 ms on neuro-l5).
func crawlReady(m *mesh.Mesh) *mesh.Mesh {
	m.BlockGraph()
	return m
}

// Engines selects entries of the engine table by name, in the order
// given. An unknown name panics: a misspelt engine must not silently
// drop out of an experiment.
func Engines(names ...string) []EngineFactory {
	all := AllEngines()
	out := make([]EngineFactory, len(names))
	for i, name := range names {
		j := slices.IndexFunc(all, func(f EngineFactory) bool { return f.Name == name })
		if j < 0 {
			panic(fmt.Sprintf("bench: no engine %q in the engine table", name))
		}
		out[i] = all[j]
	}
	return out
}
