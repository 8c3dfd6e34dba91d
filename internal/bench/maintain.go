package bench

import (
	"fmt"
	"math"
	"time"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/shard"
	"octopus/internal/sim"
	"octopus/internal/workload"
)

// Maintain is the incremental-maintenance experiment (DESIGN.md §11):
// for every engine — unsharded and K=4 sharded — a live pipeline drains
// a mixed range+kNN workload under a deforming mesh while the
// maintenance mode sweeps from the legacy monolithic rebuild, through
// unbudgeted incremental (dirty-region localized tasks, run to
// completion each tick), to hard per-tick budgets that slice tasks
// mid-flight. Each run reports query latency (mean, p99; the wait for
// the maintenance lock is charged to latency, per the paper's
// accounting), staleness (mean and max epochs behind head) and the
// scheduler's own accounting: slices run, tasks completed,
// mid-maintenance fallback queries and budget utilization.
//
// Two tables cover the two deformation regimes:
//
//   - "maintain": the paper's massive-update workload — every vertex
//     moves every step, the hardest case for incremental maintenance
//     (the dirty region overflows and relocation degenerates to a
//     sliceable full pass).
//   - "maintain-local": a localized deformer (only the vertices inside
//     a small orbiting sphere move), where the dirty region is a small
//     fraction of the mesh and localized tasks do proportionally less
//     work than any full rebuild.
//
// The acceptance signal is the rebuild-heavy engines (octree, kd-tree,
// LU-Grid): incremental/budgeted maintenance must cut p99 latency
// and/or staleness versus their monolithic baseline at equal workloads,
// while the snapshot/equivalence suites pin exactness.
//
// The monolithic rows run the same engines behind stepOnly, which hides
// their BeginMaintenance: the scheduler then has only the whole-engine
// Step to run, one unsliceable StepTask per tick.
func Maintain(cfg Config) ([]*Table, error) {
	return maintainTables(cfg, AllEngines())
}

// maintainTables is the parameterized body of Maintain; the smoke test
// runs a subset of the engines.
func maintainTables(cfg Config, factories []EngineFactory) ([]*Table, error) {
	type mode struct {
		name       string
		budget     time.Duration
		monolithic bool
	}
	allModes := []mode{
		{"monolithic", 0, true},
		{"incremental", 0, false},
		{"budget", 2 * time.Millisecond, false},
		{"budget", 250 * time.Microsecond, false},
	}
	localModes := []mode{
		{"monolithic", 0, true},
		{"incremental", 0, false},
		{"budget", 250 * time.Microsecond, false},
	}

	nQueries := cfg.Steps * cfg.QueriesPerStep
	if nQueries < 64 {
		nQueries = 64
	}
	if nQueries > 384 {
		nQueries = 384
	}
	nKNN := nQueries / 4

	ds := meshgen.NeuroL2
	// One private mesh and one partition for the whole sweep: the
	// pipeline deforms it, so the shared BuildCached instance must not
	// be used, but rebuilding per run would dwarf the measurement. Each
	// run restores the pristine geometry in place (serial here, so safe)
	// so every engine deforms identical positions.
	m, err := meshgen.Build(ds, cfg.Scale)
	if err != nil {
		return nil, err
	}
	orig := append([]geom.Vec3(nil), m.Positions()...)
	sm, err := shard.NewMesh(m, 4, shard.Options{})
	if err != nil {
		return nil, err
	}

	columns := []string{
		"dataset", "engine", "mode", "budget", "steps", "queries",
		"lat-mean[us]", "lat-p99[us]", "stale-mean[epochs]", "stale-max[epochs]",
		"maint[ms]", "slices", "tasks", "fallbacks", "budget-util[%]",
	}
	global := &Table{
		ID:      "maintain",
		Title:   "Incremental maintenance, massive updates: budget sweep vs latency and staleness",
		Columns: columns,
	}
	local := &Table{
		ID:      "maintain-local",
		Title:   "Incremental maintenance, localized updates: dirty-region tasks vs monolithic rebuilds",
		Columns: columns,
	}

	gen := workload.NewGenerator(m, 4096, cfg.Seed)
	// The stream must span the writer's whole life for the tail to mean
	// anything: a monolithic stall catches one query per worker per
	// rebuild, so with W workers and S writer steps the stalled fraction
	// is ~W*S/total — the tiling keeps that comfortably above 1% while
	// giving the drain enough work to overlap every maintenance round.
	// Queries are also heavier than the global default (3% selectivity)
	// so the drain does not finish inside the first deformation step.
	sel := cfg.Selectivity
	if sel < 0.03 {
		sel = 0.03
	}
	queries := tile(gen.UniformQueries(nQueries, sel), 5)
	probes := tile(gen.KNNQueries(nKNN, 4, 16, 0.05), 5)

	runOne := func(t *Table, f EngineFactory, md mode, sharded bool, deformer sim.Deformer) {
		copy(m.Positions(), orig)
		build := f.New
		if md.monolithic {
			build = func(m *mesh.Mesh) query.ParallelKNNEngine { return stepOnly(f.New(m)) }
		}
		var eng query.ParallelKNNEngine
		var dm query.DeformableMesh = m
		label := ""
		if sharded {
			sm.Resync()
			eng = shard.NewRouter(sm, build)
			dm = sm
			label = "K=4 "
		} else {
			eng = build(m)
		}
		pl := &query.Pipeline{
			Engine: eng,
			Mesh:   dm,
			Deform: deformer.Step,
			// A small tick instead of continuous stepping: on the sharded
			// mesh a tick-0 writer saturates the cross-shard coherence
			// gate (Go's RW mutex prefers the waiting writer) and the
			// table would measure gate contention, not maintenance.
			Tick: 200 * time.Microsecond,
			// A fixed number of steps bounds every run identically; a
			// modest worker pool keeps the drain spanning those steps
			// instead of burning through before the first rebuild.
			MinSteps:          8,
			MaxSteps:          8,
			Workers:           4,
			MaintenanceBudget: md.budget,
		}
		report := pl.Run(queries, probes)
		traces := report.Traces()
		latMean, latP99 := query.LatencyStats(traces, 0.99)
		staleMean, staleMax := query.StalenessStats(traces)
		st := pl.SchedulerStats()
		t.AddRow(
			string(ds), label+f.Name, md.name, budgetLabel(md.budget),
			report.Steps, len(traces),
			float64(latMean.Nanoseconds())/1e3,
			float64(latP99.Nanoseconds())/1e3,
			staleMean, staleMax,
			float64(st.SliceTime.Nanoseconds())/1e6,
			st.SlicesRun, st.TasksCompleted, st.FallbackQueries,
			100*st.BudgetUtilization(md.budget),
		)
	}

	bounds := m.Bounds()
	for _, sharded := range []bool{false, true} {
		for _, f := range factories {
			for _, md := range allModes {
				deformer, err := sim.DefaultDeformer(ds, sim.DefaultAmplitude)
				if err != nil {
					return nil, err
				}
				runOne(global, f, md, sharded, deformer)
			}
			for _, md := range localModes {
				runOne(local, f, md, sharded, &localDeformer{
					bounds: bounds,
					radius: bounds.Size().Len() * 0.12,
					amp:    bounds.Size().Len() * 1e-3,
				})
			}
		}
	}

	global.Notes = append(global.Notes,
		"monolithic = legacy full rebuild per tick; incremental = dirty-region localized tasks, unbudgeted; budget = tasks sliced at the per-tick deadline",
		fmt.Sprintf("%d range + %d kNN queries per run (tiled x5), 200us deformation tick, 8 steps, 4 workers", nQueries, nKNN),
		"latency includes the wait for the maintenance lock (maintenance charged to query response, as in the paper)",
		"fallbacks = queries answered by the pinned-head position scan because their target was mid-maintenance-slice (exact at head by construction)",
		"maint[ms] = total wall time inside maintenance slices over the run's 8 steps",
		"exactness at the trace epoch is asserted by the snapshot/equivalence replay suites, not here",
	)
	local.Notes = append(local.Notes,
		"same protocol as the maintain table, but only the vertices inside a small orbiting sphere move each step",
		"dirty-region tracking makes localized tasks proportional to the moved set; monolithic rebuilds still pay the whole mesh",
	)
	return []*Table{global, local}, nil
}

// stepOnly wraps e so that only its query side and Step show: the
// embedded interface has no BeginMaintenance. An engine answering from an
// internal snapshot keeps reporting its AnswerEpoch.
func stepOnly(e query.ParallelKNNEngine) query.ParallelKNNEngine {
	if er, ok := e.(query.EpochReporter); ok {
		return struct {
			query.ParallelKNNEngine
			query.EpochReporter
		}{e, er}
	}
	return struct{ query.ParallelKNNEngine }{e}
}

// localDeformer displaces only the vertices inside a sphere orbiting the
// dataset — the localized-update regime where a small active region
// deforms while the rest of the mesh is static. Deterministic in step.
type localDeformer struct {
	bounds geom.AABB
	radius float64
	amp    float64
}

// Step implements sim.Deformer.
func (d *localDeformer) Step(step int, pos []geom.Vec3) {
	c := d.bounds.Center()
	ext := d.bounds.Size().Scale(0.3)
	angle := float64(step) * 0.7
	c = c.Add(geom.V(ext.X*math.Cos(angle), ext.Y*math.Sin(angle), ext.Z*math.Sin(angle*0.5)))
	r2 := d.radius * d.radius
	disp := geom.V(
		d.amp*math.Sin(angle*1.3),
		d.amp*math.Cos(angle*2.1),
		d.amp*math.Sin(angle*0.9),
	)
	for i := range pos {
		if pos[i].Dist2(c) < r2 {
			pos[i] = pos[i].Add(disp)
		}
	}
}

// tile repeats s n times.
func tile[T any](s []T, n int) []T {
	out := make([]T, 0, len(s)*n)
	for i := 0; i < n; i++ {
		out = append(out, s...)
	}
	return out
}

// budgetLabel renders a maintenance budget ("-" for none).
func budgetLabel(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.String()
}
