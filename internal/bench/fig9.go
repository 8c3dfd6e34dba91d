package bench

import (
	"octopus/internal/core"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
)

// Fig9ab regenerates Figure 9(a,b): on the two convex earthquake datasets,
// OCTOPUS-CON vs OCTOPUS vs the linear scan (a), plus the per-phase time
// breakdown of OCTOPUS and OCTOPUS-CON (b). OCTOPUS-CON eliminates the
// surface probe entirely and shortens the directed walk with its stale
// grid, so it wins and — unlike OCTOPUS — is insensitive to S:V.
func Fig9ab(cfg Config) ([]*Table, error) {
	perf := &Table{
		ID:      "fig9a",
		Title:   "Convex datasets: total query response time",
		Columns: []string{"dataset", "OCTOPUS-CON", "OCTOPUS", "LinearScan", "CON speedup[x]", "OCT speedup[x]"},
	}
	breakdown := &Table{
		ID:      "fig9b",
		Title:   "Convex datasets: phase breakdown",
		Columns: []string{"dataset", "engine", "surface probe/grid", "directed walk", "crawling"},
	}

	for _, id := range []meshgen.Dataset{meshgen.EqSF2, meshgen.EqSF1} {
		s, err := loadScene(id, cfg)
		if err != nil {
			return nil, err
		}
		res := Run(s.m, s.deformer, cfg.Steps,
			UniformQueryStream(s.gen, cfg.QueriesPerStep, cfg.Selectivity),
			Engines("OCTOPUS-CON", "OCTOPUS", "LinearScan"))

		perf.AddRow(string(id),
			res.Engines[0].TotalResponse, res.Engines[1].TotalResponse, res.Engines[2].TotalResponse,
			Speedup(res.Engines[0], res.Engines[2]), Speedup(res.Engines[1], res.Engines[2]))

		cs, os := res.Built[0].(*core.Con).Stats(), res.Built[1].(*core.Octopus).Stats()
		breakdown.AddRow(string(id), "OCTOPUS-CON", cs.SurfaceProbe, cs.DirectedWalk, cs.Crawl)
		breakdown.AddRow(string(id), "OCTOPUS", os.SurfaceProbe, os.DirectedWalk, os.Crawl)
	}
	perf.Notes = append(perf.Notes,
		"paper: OCTOPUS 5.7x (SF2) / 6.7x (SF1); OCTOPUS-CON 15.5x on both (insensitive to S:V)")
	breakdown.Notes = append(breakdown.Notes,
		"paper: crawling time identical for both engines; CON removes the surface probe")
	return []*Table{perf, breakdown}, nil
}

// Fig9cd regenerates Figure 9(c,d): the grid-resolution trade-off of
// OCTOPUS-CON on SF1 — finer start-point grids shorten the directed walk
// (c) but cost more memory (d). The paper sweeps 8..5832 cells and settles
// on 1000.
func Fig9cd(cfg Config) ([]*Table, error) {
	walk := &Table{
		ID:      "fig9c",
		Title:   "Directed walk length vs grid resolution (SF1)",
		Columns: []string{"grid cells", "walk vertices accessed", "response time"},
	}
	memory := &Table{
		ID:      "fig9d",
		Title:   "Grid memory overhead vs resolution (SF1)",
		Columns: []string{"grid cells", "grid memory[MB]"},
	}

	for _, cells := range []int{8, 216, 1000, 2744, 5832} {
		s, err := loadScene(meshgen.EqSF1, cfg)
		if err != nil {
			return nil, err
		}
		// The grid resolution is what this figure sweeps, so OCTOPUS-CON is
		// built here rather than taken from the engine table.
		conAt := EngineFactory{Name: "OCTOPUS-CON", New: func(m *mesh.Mesh) query.ParallelKNNEngine {
			return core.NewCon(m, cells)
		}}
		res := Run(s.m, s.deformer, cfg.Steps,
			UniformQueryStream(s.gen, cfg.QueriesPerStep, cfg.Selectivity), []EngineFactory{conAt})
		con := res.Built[0].(*core.Con)

		walk.AddRow(cells, con.Stats().WalkVisited, res.Engines[0].TotalResponse)
		memory.AddRow(cells, MB(con.GridMemoryBytes()))
	}
	walk.Notes = append(walk.Notes,
		"paper: walk length falls monotonically with resolution; even 8 cells cuts the walk ~8x vs no grid")
	return []*Table{walk, memory}, nil
}
