package bench

import (
	"octopus/internal/geom"
	"octopus/internal/meshgen"
)

// referenceNeuro returns the mid-detail dataset the sensitivity analysis
// (§V-C, OCTOPUS against the linear scan only) fixes "unless mentioned
// otherwise" (the paper's 260 M tetrahedra mesh).
func referenceNeuro() meshgen.Dataset { return meshgen.NeuroL3 }

// Fig7ab regenerates Figure 7(a,b): total query response time and speedup
// across mesh detail levels with a fixed query size. The query half-extent
// is derived once, on the reference dataset, from the default selectivity;
// on finer meshes the same boxes contain more results.
func Fig7ab(cfg Config) ([]*Table, error) {
	times := &Table{
		ID:      "fig7a",
		Title:   "Response time vs mesh detail (fixed query size)",
		Columns: []string{"level", "vertices", "LinearScan", "OCTOPUS"},
	}
	speed := &Table{
		ID:      "fig7b",
		Title:   "Speedup vs mesh detail (fixed query size)",
		Columns: []string{"level", "speedup[x]"},
	}

	// Derive the fixed half-extent on the reference dataset.
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
		}, Engines("OCTOPUS", "LinearScan"))
		times.AddRow(level, s.m.NumVertices(), res.Engines[1].TotalResponse, res.Engines[0].TotalResponse)
		speed.AddRow(level, Speedup(res.Engines[0], res.Engines[1]))
	}
	speed.Notes = append(speed.Notes,
		"paper: speedup rises 8->10x with detail (S:V shrinks); expect a monotone rise here too")
	return []*Table{times, speed}, nil
}

// Fig7cd regenerates Figure 7(c,d): the same sweep but shrinking the query
// volume per level so the number of results stays constant; the scan's
// time stays flat while OCTOPUS gets faster, so speedup rises steeply
// (paper: 8->23x).
func Fig7cd(cfg Config) ([]*Table, error) {
	times := &Table{
		ID:      "fig7c",
		Title:   "Response time vs mesh detail (fixed result count)",
		Columns: []string{"level", "vertices", "LinearScan", "OCTOPUS"},
	}
	speed := &Table{
		ID:      "fig7d",
		Title:   "Speedup vs mesh detail (fixed result count)",
		Columns: []string{"level", "speedup[x]"},
	}

	// Fix the result count: the default selectivity on the coarsest level.
	base, err := meshgen.BuildCached(meshgen.NeuroL1, cfg.Scale)
	if err != nil {
		return nil, err
	}
	targetResults := cfg.Selectivity * float64(base.NumVertices())

	for level := 1; level <= meshgen.NeuronLevels; level++ {
		id := meshgen.NeuroLevel(level)
		s, err := loadScene(id, cfg)
		if err != nil {
			return nil, err
		}
		sel := targetResults / float64(s.m.NumVertices())
		res := Run(s.m, s.deformer, cfg.Steps,
			UniformQueryStream(s.gen, cfg.QueriesPerStep, sel), Engines("OCTOPUS", "LinearScan"))
		times.AddRow(level, s.m.NumVertices(), res.Engines[1].TotalResponse, res.Engines[0].TotalResponse)
		speed.AddRow(level, Speedup(res.Engines[0], res.Engines[1]))
	}
	speed.Notes = append(speed.Notes,
		"paper: speedup rises 8->23x; OCTOPUS decouples from dataset size while the scan does not")
	return []*Table{times, speed}, nil
}

// Fig7ef regenerates Figure 7(e,f): total time and speedup as the number
// of simulation time steps grows from 20 to 100 — both approaches scale
// linearly with steps, so the speedup stays flat (paper: ~9.5x).
func Fig7ef(cfg Config) ([]*Table, error) {
	times := &Table{
		ID:      "fig7e",
		Title:   "Response time vs number of time steps",
		Columns: []string{"steps", "LinearScan", "OCTOPUS"},
	}
	speed := &Table{
		ID:      "fig7f",
		Title:   "Speedup vs number of time steps",
		Columns: []string{"steps", "speedup[x]"},
	}

	id := referenceNeuro()
	stepCounts := []int{20, 40, 60, 80, 100}
	if cfg.Steps < 60 { // quick mode: proportionally fewer steps
		stepCounts = []int{cfg.Steps, cfg.Steps * 2, cfg.Steps * 3}
	}
	for _, steps := range stepCounts {
		s, err := loadScene(id, cfg)
		if err != nil {
			return nil, err
		}
		res := Run(s.m, s.deformer, steps,
			UniformQueryStream(s.gen, cfg.QueriesPerStep, cfg.Selectivity), Engines("OCTOPUS", "LinearScan"))
		times.AddRow(steps, res.Engines[1].TotalResponse, res.Engines[0].TotalResponse)
		speed.AddRow(steps, Speedup(res.Engines[0], res.Engines[1]))
	}
	speed.Notes = append(speed.Notes,
		"paper: speedup constant (~9.5x) across step counts; neither approach depends on update magnitude")
	return []*Table{times, speed}, nil
}

// Fig7gh regenerates Figure 7(g,h): total time and speedup across query
// selectivities 0.01%..0.2% — crawling grows with selectivity, so the
// speedup falls (paper: 17->7x).
func Fig7gh(cfg Config) ([]*Table, error) {
	times := &Table{
		ID:      "fig7g",
		Title:   "Response time vs query selectivity",
		Columns: []string{"selectivity[%]", "LinearScan", "OCTOPUS"},
	}
	speed := &Table{
		ID:      "fig7h",
		Title:   "Speedup vs query selectivity",
		Columns: []string{"selectivity[%]", "speedup[x]"},
	}

	id := referenceNeuro()
	for _, sel := range []float64{0.0001, 0.0005, 0.001, 0.0015, 0.002} {
		s, err := loadScene(id, cfg)
		if err != nil {
			return nil, err
		}
		res := Run(s.m, s.deformer, cfg.Steps,
			UniformQueryStream(s.gen, cfg.QueriesPerStep, sel), Engines("OCTOPUS", "LinearScan"))
		times.AddRow(sel*100, res.Engines[1].TotalResponse, res.Engines[0].TotalResponse)
		speed.AddRow(sel*100, Speedup(res.Engines[0], res.Engines[1]))
	}
	speed.Notes = append(speed.Notes,
		"paper: speedup falls 17->7x as selectivity rises 0.01->0.2% (crawl share grows)")
	return []*Table{times, speed}, nil
}
