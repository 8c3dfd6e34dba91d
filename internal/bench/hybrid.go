package bench

import "octopus/internal/core"

// HybridCrossover extends the paper's Figure 7(g,h) selectivity sweep with
// the model-routed hybrid engine of §IV-G: below Equation 6's break-even
// selectivity the hybrid should track OCTOPUS, above it the linear scan —
// i.e. it should never be the slowest engine by more than the routing
// overhead.
func HybridCrossover(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:    "hybrid",
		Title: "Model-routed hybrid across selectivities (extension of fig7gh)",
		Columns: []string{"selectivity[%]", "OCTOPUS", "LinearScan", "Hybrid",
			"routed to octopus", "routed to scan"},
	}

	// Sweep across the break-even point: moderate selectivities where
	// OCTOPUS wins, very large ones where the scan must win.
	for _, sel := range []float64{0.001, 0.01, 0.05, 0.2, 0.5} {
		s, err := loadScene(referenceNeuro(), cfg)
		if err != nil {
			return nil, err
		}
		res := Run(s.m, s.deformer, cfg.Steps,
			UniformQueryStream(s.gen, cfg.QueriesPerStep, sel), Engines("OCTOPUS", "LinearScan", "OCTOPUS-Hybrid"))
		oct, scan := res.Built[2].(*core.Hybrid).Routed()
		t.AddRow(sel*100,
			res.Engines[0].TotalResponse, res.Engines[1].TotalResponse,
			res.Engines[2].TotalResponse, oct, scan)
	}
	t.Notes = append(t.Notes,
		"the hybrid should approximate min(OCTOPUS, scan) on both sides of Equation 6's break-even")
	return []*Table{t}, nil
}
