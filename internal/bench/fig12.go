package bench

import (
	"time"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/workload"
)

// Fig12 regenerates Figure 12: the surface-approximation optimization
// (§IV-H2) — probing only a random fraction of the surface trades accuracy
// for probe time. (a) result accuracy vs approximation fraction, (b)
// speedup over exact OCTOPUS.
func Fig12(cfg Config) ([]*Table, error) {
	accuracy := &Table{
		ID:      "fig12a",
		Title:   "Result accuracy vs surface approximation",
		Columns: []string{"approximation[%]", "sel 0.01% accuracy[%]", "sel 0.1% accuracy[%]"},
	}
	speedup := &Table{
		ID:      "fig12b",
		Title:   "Speedup vs surface approximation (relative to exact OCTOPUS)",
		Columns: []string{"approximation[%]", "sel 0.01% speedup[x]", "sel 0.1% speedup[x]"},
	}

	m, err := meshgen.BuildCached(largestNeuro(), cfg.Scale)
	if err != nil {
		return nil, err
	}
	gen := workload.NewGenerator(m, 4096, cfg.Seed)
	selectivities := []float64{0.0001, 0.001}

	// Fixed query sets per selectivity, shared across fractions. Large
	// enough that per-set timing dominates measurement noise.
	querySets := make([][]queryTruth, len(selectivities))
	for i, sel := range selectivities {
		boxes := gen.UniformQueries(cfg.QueriesPerStep*12, sel)
		for _, q := range boxes {
			querySets[i] = append(querySets[i], queryTruth{box: q, truth: len(query.BruteForce(m, q))})
		}
	}

	// Exact baseline times per selectivity, after one warm-up pass so the
	// baseline is not advantaged or penalized by cold caches.
	exact := core.New(m)
	baseline := make([]time.Duration, len(selectivities))
	for i := range selectivities {
		var out []int32
		for _, qt := range querySets[i] {
			out = exact.Query(qt.box, out[:0])
		}
		start := time.Now()
		for _, qt := range querySets[i] {
			out = exact.Query(qt.box, out[:0])
		}
		baseline[i] = time.Since(start)
	}

	for _, frac := range []float64{0.001, 0.01, 0.1, 1} {
		accRow := []interface{}{frac * 100}
		spdRow := []interface{}{frac * 100}
		for i := range selectivities {
			cur := core.New(m).NewCursor().(*core.Cursor)
			cur.SetBudget(query.CrawlBudget{SurfaceFrac: frac})
			var out []int32
			for _, qt := range querySets[i] { // warm-up pass
				out = cur.Query(qt.box, out[:0])
			}
			got, want := 0, 0
			start := time.Now()
			for _, qt := range querySets[i] {
				out = cur.Query(qt.box, out[:0])
				got += len(out)
				want += qt.truth
			}
			elapsed := time.Since(start)
			acc := 100.0
			if want > 0 {
				acc = 100 * float64(got) / float64(want)
			}
			accRow = append(accRow, acc)
			spd := 0.0
			if elapsed > 0 {
				spd = float64(baseline[i]) / float64(elapsed)
			}
			spdRow = append(spdRow, spd)
		}
		accuracy.AddRow(accRow...)
		speedup.AddRow(spdRow...)
	}
	accuracy.Notes = append(accuracy.Notes,
		"paper: >90% accuracy while ignoring 99.9% of surface vertices; accurate above 0.1% approximation",
		"bigger queries tolerate coarser approximation (more surface vertices inside)")
	speedup.Notes = append(speedup.Notes,
		"paper: speedup from skipping probe work; very coarse approximations speed up more at accuracy's expense")
	return []*Table{accuracy, speedup}, nil
}

// queryTruth pairs a query box with its ground-truth result count.
type queryTruth struct {
	box   geom.AABB
	truth int
}
