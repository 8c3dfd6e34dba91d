// Live monitoring while the simulation runs: the deform+query pipeline,
// now with budgeted incremental maintenance.
//
// Every earlier example alternates strictly — deform, then query, then
// deform again. Here the simulation never stops: a writer goroutine
// publishes a deformation step every tick through the mesh's
// double-buffered position store, while query workers answer range and
// kNN queries concurrently. Each query pins a position epoch, so its
// result is exactly the state of one published step — never a torn mix —
// and the report says how stale each answer was (epochs behind the
// simulation head).
//
// OCTOPUS needs no index maintenance, so its answers track the head.
// The kd-tree baseline used to stall the writer for a full rebuild
// every step; under a maintenance budget its rebuild becomes a
// dirty-region relocation task sliced to the budget, queries landing
// mid-slice answer from a pinned-position scan (exact at the head), and
// the scheduler stats below show the slicing at work.
package main

import (
	"fmt"
	"time"

	"octopus"
	"octopus/datasets"
)

// stepOnly is the monolithic baseline: the embedded interface has no
// BeginMaintenance, so the pipeline's scheduler cannot slice or localize
// the kd-tree's upkeep and runs one whole rebuild Step per tick.
// AnswerEpoch is forwarded so staleness is still charged to the rebuild.
type stepOnly struct{ octopus.ParallelKNNEngine }

func (e stepOnly) AnswerEpoch() uint64 {
	return e.ParallelKNNEngine.(interface{ AnswerEpoch() uint64 }).AnswerEpoch()
}

func main() {
	m, err := datasets.Build(datasets.NeuroL2, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("neuron mesh:", octopus.ComputeMeshStats(m))

	deformer, err := datasets.NewDeformer(datasets.NeuroL2, datasets.DefaultAmplitude)
	if err != nil {
		panic(err)
	}

	// A monitoring workload: boxes around tissue locations plus kNN
	// probes ("the k synapses closest to this point"). The writer deforms
	// continuously (tick 0) — the most hostile schedule for the query
	// side, and the one that makes maintained indexes' staleness visible.
	bounds := m.Bounds()
	r := bounds.Size().Len() * 0.02
	var queries []octopus.AABB
	var probes []octopus.KNNQuery
	for i := 0; i < 2000; i++ {
		c := m.Position(int32((i * 2654435761) % m.NumVertices()))
		queries = append(queries, octopus.BoxAround(c, r))
		if i%4 == 0 {
			probes = append(probes, octopus.KNNQuery{P: c, K: 8})
		}
	}

	kd := func(m *octopus.Mesh) octopus.ParallelKNNEngine { return octopus.NewKDTree(m, 0) }
	for _, e := range []struct {
		name   string
		budget time.Duration
		make   func(m *octopus.Mesh) octopus.ParallelKNNEngine
	}{
		{"octopus", 0, func(m *octopus.Mesh) octopus.ParallelKNNEngine { return octopus.New(m) }},
		{"kd-monolithic", 0, func(m *octopus.Mesh) octopus.ParallelKNNEngine { return stepOnly{kd(m)} }},
		{"kd-incremental", 0, kd},
		{"kd-budget", 500 * time.Microsecond, kd},
	} {
		// Reset geometry between engines (datasets.Build caches the mesh
		// and restores its original positions in place), then build the
		// engine over the restored state.
		if _, err := datasets.Build(datasets.NeuroL2, 1); err != nil {
			panic(err)
		}

		pl := octopus.NewPipeline(e.make(m), m, deformer.Step, 0, 0)
		pl.MinSteps = 4
		pl.MaintenanceBudget = e.budget
		report := pl.Run(queries, probes)

		traces := report.Traces()
		latMean, latP99 := octopus.LatencyStats(traces, 0.99)
		staleMean, staleMax := octopus.StalenessStats(traces)
		fmt.Printf("%-14s steps=%-3d queries=%-4d lat mean=%-10v p99=%-10v staleness mean=%.3f max=%d epochs\n",
			e.name, report.Steps, len(traces), latMean, latP99, staleMean, staleMax)
		st := pl.SchedulerStats()
		fmt.Printf("               maintenance: %d slices, %d/%d tasks done, %d fallback queries, %.0f%% budget used, max staleness %d\n",
			st.SlicesRun, st.TasksCompleted, st.TasksStarted, st.FallbackQueries,
			100*st.BudgetUtilization(e.budget), st.MaxStaleness)
	}

	fmt.Println("\nevery result above was answered while the mesh was deforming —")
	fmt.Println("pin an epoch, read one consistent state, release; no stop-the-world.")
	fmt.Println("with a budget, even the kd-tree no longer stalls the writer for whole rebuilds:")
	fmt.Println("maintenance runs in slices and mid-slice queries answer from the pinned head scan.")
}
