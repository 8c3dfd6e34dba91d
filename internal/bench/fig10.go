package bench

import (
	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/meshgen"
	"octopus/internal/workload"
)

// Fig10 regenerates Figure 10: (a) OCTOPUS' per-phase execution time as
// the dataset grows under a fixed query size — the surface probe grows
// sublinearly (S:V shrinks) while crawling grows with the result count —
// and (b) OCTOPUS' memory footprint as a function of the number of query
// results. (b) is reported, not reproduced: the paper's visited set is a
// hash table sized by the result, this engine's crawls share one 8 B
// visited word per 32-vertex crawl block, sized by the mesh (DESIGN.md
// §12), and
// the footprint holds the surface index and the mesh's block graph, so
// only the block queue and the seed buffer grow with the result count.
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
	ref, err := loadScene(referenceNeuro(), cfg)
	if err != nil {
		return nil, err
	}
	halfExtent := ref.gen.HalfExtentForSelectivity(cfg.Selectivity, 8)

	for level := 1; level <= meshgen.NeuronLevels; level++ {
		id := meshgen.NeuroLevel(level)
		s, err := loadScene(id, cfg)
		if err != nil {
			return nil, err
		}
		res := Run(s.m, s.deformer, cfg.Steps, func(int) []geom.AABB {
			return s.gen.FixedQueries(cfg.QueriesPerStep, halfExtent)
		}, Engines("OCTOPUS"))

		st := res.Built[0].(*core.Octopus).Stats()
		breakdown.AddRow(level, s.m.NumVertices(), st.SurfaceProbe, st.DirectedWalk, st.Crawl,
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
		"not reproduced: the visited set here, shared by the range and kNN crawls, is one 8 B word per 32-vertex crawl block (62 KB on neuro-l5), allocated by a cursor's first seeded crawl and independent of the result, beside the surface index and the mesh's block graph; only the block queue and the seed buffer (and the caller's result slice) grow with the result")
	return []*Table{breakdown, footprint}, nil
}
