package bench

import (
	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/sim"
	"octopus/internal/workload"
)

// Fig10 regenerates Figure 10: (a) OCTOPUS' per-phase execution time as
// the dataset grows under a fixed query size — the surface probe grows
// sublinearly (S:V shrinks) while crawling grows with the result count —
// and (b) OCTOPUS' memory footprint as a function of the number of query
// results. (b) is reported, not reproduced: the paper's visited set is a
// hash table sized by the result, this engine's is a mark array sized by
// the mesh (DESIGN.md §12), so the footprint is flat in the result count
// once the first seeded crawl has run.
func Fig10(cfg Config) ([]*Table, error) {
	breakdown := &Table{
		ID:      "fig10a",
		Title:   "OCTOPUS phase breakdown vs dataset size (fixed query size)",
		Columns: []string{"level", "vertices", "surface probe", "directed walk", "crawling", "results"},
	}
	footprint := &Table{
		ID:      "fig10b",
		Title:   "OCTOPUS memory footprint vs number of query results",
		Columns: []string{"query results", "footprint[MB]"},
	}

	// (a) fixed query size across detail levels.
	ref, err := meshgen.BuildCached(referenceNeuro(), cfg.Scale)
	if err != nil {
		return nil, err
	}
	refGen := workload.NewGenerator(ref, 4096, cfg.Seed)
	halfExtent := refGen.HalfExtentForSelectivity(cfg.Selectivity, 8)

	for level := 1; level <= meshgen.NeuronLevels; level++ {
		id := meshgen.NeuroLevel(level)
		m, err := meshgen.BuildCached(id, cfg.Scale)
		if err != nil {
			return nil, err
		}
		deformer, err := sim.DefaultDeformer(id, sim.DefaultAmplitude)
		if err != nil {
			return nil, err
		}
		gen := workload.NewGenerator(m, 4096, cfg.Seed)

		var octRef *core.Octopus
		factories := []EngineFactory{{Name: "OCTOPUS", New: func(m *mesh.Mesh) query.Engine {
			octRef = core.New(m)
			return octRef
		}}}
		res := Run(m, deformer, cfg.Steps, func(int) []geom.AABB {
			return gen.FixedQueries(cfg.QueriesPerStep, halfExtent)
		}, factories)

		s := octRef.Stats()
		breakdown.AddRow(level, m.NumVertices(), s.SurfaceProbe, s.DirectedWalk, s.Crawl,
			res.Engines[0].Results)
	}
	breakdown.Notes = append(breakdown.Notes,
		"paper: probe grows sublinearly (fewer surface vertices proportionally); crawl grows with results; walk negligible")

	// (b) footprint vs result count: grow the query size on the largest
	// dataset, measuring the footprint reached after each workload.
	m, err := meshgen.BuildCached(largestNeuro(), cfg.Scale)
	if err != nil {
		return nil, err
	}
	gen := workload.NewGenerator(m, 4096, cfg.Seed)
	for _, sel := range []float64{0.0005, 0.001, 0.002, 0.005, 0.01, 0.02} {
		o := core.New(m)
		queries := gen.UniformQueries(cfg.QueriesPerStep, sel)
		var out []int32
		total := int64(0)
		for _, q := range queries {
			out = o.Query(q, out[:0])
			total += int64(len(out))
		}
		footprint.AddRow(total, MB(o.MemoryFootprint()))
	}
	footprint.Notes = append(footprint.Notes,
		"paper: footprint correlates directly with result count (visited-set and queue sizing)",
		"not reproduced: the visited set here is a mark array of 4 B per mesh vertex, allocated by a cursor's first seeded crawl and independent of the result; only the seed buffer and the kNN heaps (and the caller's result slice) still grow with the result")
	return []*Table{breakdown, footprint}, nil
}
