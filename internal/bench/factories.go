package bench

import (
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

// kdtreeFactory returns the throwaway kd-tree extended baseline.
func kdtreeFactory() EngineFactory {
	return EngineFactory{Name: "KD-Tree", New: func(m *mesh.Mesh) query.Engine {
		return kdtree.NewEngine(m, 0)
	}}
}

// knnEngineFactory names one kNN-capable engine and builds it with the
// standard benchmark tuning.
type knnEngineFactory struct {
	name string
	make func(m *mesh.Mesh) query.ParallelKNNEngine
}

// knnEngineFactories is the canonical list of every kNN-capable engine,
// shared by the knn, maintain and sharded experiments so all of them
// benchmark identically configured engines. The scan comes first so experiments can
// compute speedups against it.
func knnEngineFactories() []knnEngineFactory {
	return []knnEngineFactory{
		{"LinearScan", func(m *mesh.Mesh) query.ParallelKNNEngine { return linearscan.New(m) }},
		{"OCTOPUS", func(m *mesh.Mesh) query.ParallelKNNEngine { return core.New(m) }},
		{"OCTOPUS-CON", func(m *mesh.Mesh) query.ParallelKNNEngine { return core.NewCon(m, 0) }},
		{"OCTOPUS-Hybrid", func(m *mesh.Mesh) query.ParallelKNNEngine {
			return core.NewHybrid(m, 0, core.Calibrate(m))
		}},
		{"KD-Tree", func(m *mesh.Mesh) query.ParallelKNNEngine { return kdtree.NewEngine(m, 0) }},
		{"OCTREE", func(m *mesh.Mesh) query.ParallelKNNEngine { return octree.NewEngine(m, 0) }},
		{"LU-Grid", func(m *mesh.Mesh) query.ParallelKNNEngine { return grid.NewLUEngine(m, 4096) }},
		{"LUR-Tree", func(m *mesh.Mesh) query.ParallelKNNEngine { return lurtree.New(m, 0) }},
		{"QU-Trade", func(m *mesh.Mesh) query.ParallelKNNEngine { return qutrade.New(m, 0, 0) }},
	}
}
