package bench

import (
	"fmt"
	"time"

	"octopus/internal/geom"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/sim"
	"octopus/internal/workload"
)

// Live is the concurrent deform+query experiment: for every engine and
// dataset, a query.Pipeline writer publishes deformation steps at a
// swept tick while a worker pool drains a mixed range+kNN workload, and
// the table reports per-query latency (mean, p99) plus result staleness
// (mean and max epochs behind the simulation head at completion).
//
// This is the experiment the stop-the-world benchmarks cannot express:
// the OCTOPUS family needs no index maintenance, so its queries never
// wait on the writer and answer at (or next to) the head epoch, while
// rebuild- and relocate-per-step baselines both stall queries during
// maintenance (charged to latency) and answer from their last completed
// maintenance (charged to staleness). Lowering the tick — deforming more
// aggressively — widens both gaps.
func Live(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:    "live",
		Title: "Live pipeline: query latency and staleness vs deformation tick",
		Columns: []string{
			"dataset", "engine", "tick", "steps", "queries",
			"lat-mean[us]", "lat-p99[us]", "stale-mean[epochs]", "stale-max[epochs]",
		},
	}

	factories := knnEngineFactories()
	ticks := []time.Duration{0, 500 * time.Microsecond, 2 * time.Millisecond}

	nQueries := cfg.Steps * cfg.QueriesPerStep
	if nQueries < 64 {
		nQueries = 64
	}
	if nQueries > 512 {
		nQueries = 512
	}
	nKNN := nQueries / 4

	for _, ds := range []meshgen.Dataset{meshgen.NeuroL2, meshgen.DSHorse} {
		// Build a private (uncached) mesh: Pipeline.Run irreversibly
		// enables position snapshots, and doing that to the shared
		// BuildCached instance would silently switch every later
		// experiment on this dataset into double-buffered mode.
		m, err := meshgen.Build(ds, cfg.Scale)
		if err != nil {
			return nil, err
		}
		orig := append([]geom.Vec3(nil), m.Positions()...)
		for _, f := range factories {
			for _, tick := range ticks {
				// Restore the dataset's original geometry so each run
				// starts identically no matter how the previous one
				// deformed it (serial here, so the in-place write is
				// safe).
				copy(m.Positions(), orig)
				deformer, err := sim.DefaultDeformer(ds, sim.DefaultAmplitude)
				if err != nil {
					return nil, err
				}
				gen := workload.NewGenerator(m, 4096, cfg.Seed)
				queries := gen.UniformQueries(nQueries, cfg.Selectivity)
				probes := gen.KNNQueries(nKNN, 4, 16, 0.05)

				eng := f.make(m)
				pl := &query.Pipeline{
					Engine:   eng,
					Mesh:     m,
					Deform:   deformer.Step,
					Tick:     tick,
					MinSteps: 2,
				}
				report := pl.Run(queries, probes)
				traces := report.Traces()
				latMean, latP99 := query.LatencyStats(traces, 0.99)
				staleMean, staleMax := query.StalenessStats(traces)
				t.AddRow(
					string(ds), f.name, tickLabel(tick), report.Steps, len(traces),
					float64(latMean.Nanoseconds())/1e3,
					float64(latP99.Nanoseconds())/1e3,
					staleMean, staleMax,
				)
			}
		}
	}
	t.Notes = append(t.Notes,
		"tick 0 = writer deforms continuously; staleness = head epoch - answer epoch at query completion",
		fmt.Sprintf("%d range + %d kNN queries per run, workers = GOMAXPROCS", nQueries, nKNN),
		"OCTOPUS-family engines answer at the pinned head epoch; maintained baselines answer at their last Step epoch",
	)
	return []*Table{t}, nil
}

// tickLabel renders a tick duration ("cont" for continuous stepping).
func tickLabel(d time.Duration) string {
	if d == 0 {
		return "cont"
	}
	return d.String()
}
