package bench

import (
	"fmt"
	"sort"
)

// Experiment is a named driver regenerating one paper artifact (or a group
// of panels of the same figure).
type Experiment struct {
	ID          string
	Description string
	Run         func(Config) ([]*Table, error)
}

// Experiments returns every experiment driver, sorted by id. Together they
// cover all tables and figures of the paper's evaluation (Figures 4–15).
func Experiments() []Experiment {
	exps := []Experiment{
		{"fig4", "neuroscience dataset characterization table", Fig4},
		{"fig5", "microbenchmark definition table", Fig5},
		{"fig6", "benchmarks A-D: response time and memory, the paper's five engines plus LU-Grid and KD-Tree", Fig6},
		{"fig7ab", "sensitivity: mesh detail, fixed query size", Fig7ab},
		{"fig7cd", "sensitivity: mesh detail, fixed result count", Fig7cd},
		{"fig7ef", "sensitivity: number of time steps", Fig7ef},
		{"fig7gh", "sensitivity: query selectivity", Fig7gh},
		{"fig8", "earthquake dataset characterization table", Fig8},
		{"fig9ab", "convex meshes: OCTOPUS-CON vs OCTOPUS vs scan + phase breakdown", Fig9ab},
		{"fig9cd", "convex meshes: grid resolution trade-off", Fig9cd},
		{"fig10", "OCTOPUS overhead analysis: phase breakdown and footprint", Fig10},
		{"fig11", "analytical model validation", Fig11},
		{"fig12", "surface approximation: accuracy and speedup", Fig12},
		{"fig14", "deforming mesh dataset characterization table", Fig14},
		{"fig15", "deforming meshes: response time and speedup", Fig15},
		{"crawl", "extension: crawl cost on large boxes and the budgeted approximate mode (DESIGN.md §12)", Crawl},
		{"hybrid", "extension: model-routed hybrid engine across the break-even (§IV-G)", HybridCrossover},
		{"layout", "vertex-ordering ablation — crawl time, cache-proxy locality, the surface-first probe (DESIGN.md §7, §12) and Figure 13's Hilbert layout effect", Layout},
		{"knn", "extension: k-nearest-neighbor queries by mesh crawling vs index baselines (DESIGN.md §8)", KNN},
		{"maintain", "extension: incremental maintenance — budget sweep vs p99 latency and staleness, all engines x sharded/unsharded (DESIGN.md §11)", Maintain},
		{"repartition", "extension: live incremental re-partitioning — migration volume under restructuring storms and pressure-driven shard balancing (DESIGN.md §13)", Repartition},
		{"sharded", "extension: Hilbert-partitioned shards — response time, fan-out and live staleness vs shard count (DESIGN.md §10)", Sharded},
		{"slo", "extension: SLO-driven serving — adaptive controller, result cache drill and actuator ladder (DESIGN.md §14)", SLO},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}
