package bench

import (
	"octopus/internal/meshgen"
	"octopus/internal/workload"
)

// Fig6 regenerates Figure 6: total query response time (a) and memory
// overhead (b) of all approaches on the four neuroscience microbenchmarks,
// using the most detailed neuron dataset, 60 time steps. The engines are
// the paper's five — OCTOPUS, the linear scan, the per-step-rebuilt
// octree, the LUR-Tree and QU-Trade — then two baselines beyond them: the
// LU-Grid style lazily updated grid and the throwaway kd-tree.
func Fig6(cfg Config) ([]*Table, error) {
	factories := Engines("OCTOPUS", "LinearScan", "OCTREE", "LUR-Tree", "QU-Trade", "LU-Grid", "KD-Tree")
	perf := &Table{
		ID:      "fig6a",
		Title:   "Query response time per microbenchmark (includes maintenance)",
		Columns: append([]string{"benchmark"}, engineNames(factories)...),
	}
	mem := &Table{
		ID:      "fig6b",
		Title:   "Memory overhead per microbenchmark [MB]",
		Columns: append([]string{"benchmark"}, engineNames(factories)...),
	}
	speed := &Table{
		ID:      "fig6s",
		Title:   "OCTOPUS speedup vs LinearScan",
		Columns: []string{"benchmark", "speedup[x]"},
	}

	for _, mb := range workload.PaperBenchmarks() {
		s, err := loadScene(largestNeuro(), cfg)
		if err != nil {
			return nil, err
		}
		res := Run(s.m, s.deformer, cfg.Steps, MicrobenchmarkStream(s.gen, mb), factories)

		perfRow := []interface{}{mb.ID}
		memRow := []interface{}{mb.ID}
		for _, er := range res.Engines {
			perfRow = append(perfRow, er.TotalResponse)
			memRow = append(memRow, MB(er.FootprintBytes))
		}
		perf.AddRow(perfRow...)
		mem.AddRow(memRow...)
		speed.AddRow(mb.ID, Speedup(res.Engines[0], res.Engines[1]))
	}
	perf.Notes = append(perf.Notes,
		"paper: OCTOPUS fastest on every benchmark (7.3-9.2x vs scan); scan beats all index approaches")
	mem.Notes = append(mem.Notes,
		"paper: scan < OCTOPUS < OCTREE < LUR-Tree/QU-Trade")
	return []*Table{perf, mem, speed}, nil
}

func engineNames(fs []EngineFactory) []string {
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name
	}
	return names
}

// largestNeuro returns the most detailed neuroscience dataset, the
// paper's "33GB dataset" stand-in.
func largestNeuro() meshgen.Dataset { return meshgen.NeuroL5 }
