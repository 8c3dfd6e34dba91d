package bench

import (
	"math"

	"octopus/internal/core"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
)

// Fig11 regenerates Figure 11: validation of the analytical model (§IV-G)
// — measured OCTOPUS query response time vs Equation 3's prediction across
// the five neuroscience detail levels and three selectivities, with the
// linear scan against Equation 4. The machine constants CS and CR are
// calibrated at runtime exactly as the paper does (averaging a long run of
// a scan and a graph traversal).
func Fig11(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:    "fig11",
		Title: "Analytical model validation (measured vs predicted, per level and selectivity)",
		Columns: []string{"level", "sel[%]", "OCTOPUS measured", "OCTOPUS predicted",
			"error[%]", "scan measured", "scan predicted", "scan error[%]"},
	}

	// Calibrate on the smallest dataset, like the paper.
	small, err := meshgen.BuildCached(meshgen.NeuroL1, cfg.Scale)
	if err != nil {
		return nil, err
	}
	consts := core.Calibrate(small)

	selectivities := []float64{0.0001, 0.001, 0.002}
	var worstErr float64
	for level := 1; level <= meshgen.NeuronLevels; level++ {
		id := meshgen.NeuroLevel(level)
		for _, sel := range selectivities {
			s, err := loadScene(id, cfg)
			if err != nil {
				return nil, err
			}
			stats := mesh.ComputeStats(s.m)
			res := Run(s.m, s.deformer, cfg.Steps,
				UniformQueryStream(s.gen, cfg.QueriesPerStep, sel), Engines("OCTOPUS", "LinearScan"))

			queries := float64(res.Engines[0].Queries)
			// Per the model, cost is per query; scale to the run's totals.
			predictedOct := core.CostOctopus(stats.Vertices, stats.SurfaceRatio,
				stats.AvgDegree, sel, consts) * queries
			predictedScan := core.CostScan(stats.Vertices, consts) * queries

			measOct := res.Engines[0].TotalResponse.Seconds()
			measScan := res.Engines[1].TotalResponse.Seconds()
			errOct := 100 * math.Abs(measOct-predictedOct) / measOct
			errScan := 100 * math.Abs(measScan-predictedScan) / measScan
			if errOct > worstErr {
				worstErr = errOct
			}
			t.AddRow(level, sel*100, measOct, predictedOct, errOct, measScan, predictedScan, errScan)
		}
	}
	t.Notes = append(t.Notes,
		"paper: predictions within ~2% on their testbed; Go's allocator/GC adds noise, so expect higher but same-shaped errors",
		"predictions use runtime-calibrated CS/CR and per-dataset S, M, V")
	return []*Table{t}, nil
}
