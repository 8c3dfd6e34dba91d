package bench

import (
	"time"

	"octopus/internal/meshgen"
)

// Fig15 regenerates Figure 15: OCTOPUS vs the linear scan on the three
// deforming animation datasets, reporting the average query response time
// per time step (the sequences have different lengths, §VIII-A) and the
// speedup. The paper's finding: speedup tracks the inverse surface-to-
// volume ratio, so the facial-expression dataset wins biggest.
func Fig15(cfg Config) ([]*Table, error) {
	times := &Table{
		ID:      "fig15a",
		Title:   "Animation datasets: response time per time step",
		Columns: []string{"dataset", "steps", "LinearScan[s/step]", "OCTOPUS[s/step]"},
	}
	speed := &Table{
		ID:      "fig15b",
		Title:   "Animation datasets: speedup",
		Columns: []string{"dataset", "S:V", "speedup[x]"},
	}

	for _, id := range []meshgen.Dataset{meshgen.DSHorse, meshgen.DSFace, meshgen.DSCamel} {
		s, err := loadScene(id, cfg)
		if err != nil {
			return nil, err
		}
		steps, err := meshgen.AnimationSteps(string(id))
		if err != nil {
			return nil, err
		}
		if cfg.Steps < 20 && steps > cfg.Steps { // quick mode trims sequences
			steps = cfg.Steps
		}
		res := Run(s.m, s.deformer, steps,
			UniformQueryStream(s.gen, cfg.QueriesPerStep, cfg.Selectivity), Engines("OCTOPUS", "LinearScan"))

		perStep := func(d time.Duration) float64 { return d.Seconds() / float64(steps) }
		times.AddRow(string(id), steps,
			perStep(res.Engines[1].TotalResponse), perStep(res.Engines[0].TotalResponse))
		speed.AddRow(string(id), s.m.SurfaceToVolumeRatio(), Speedup(res.Engines[0], res.Engines[1]))
	}
	speed.Notes = append(speed.Notes,
		"paper: 15-19x, largest for facial expression (lowest S:V); expect the same ordering here")
	return []*Table{times, speed}, nil
}
