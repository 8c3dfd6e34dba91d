package bench

import (
	"fmt"
	"math"
	"time"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/sim"
	"octopus/internal/workload"
)

// SLO is the serving-layer experiment (DESIGN.md §14): the SLO-driven
// pipeline front door with its result cache and adaptive controller.
//
// Three tables:
//
//   - slo-live: the headline demonstration — the live pipeline on a
//     rebuild-per-step engine under a latency target, fixed-budget
//     serving vs SLO-controlled serving. Wall-clock dependent; numbers on
//     shared runners are indicative only and the table is not gated.
//   - slo-cache: a deterministic single-threaded drill of the epoch-keyed
//     result cache against real dirty regions from localized deformations.
//     Every hit is re-executed and compared bit-for-bit; the hit-rate,
//     invalidation and mismatch cells are machine-independent and gated.
//   - slo-control: the controller's actuator ladder driven by scripted
//     latency phases — the budget decay to its floor, the admission-window
//     shift, the crawl-budget tightenings and the relaxation back to exact
//     execution. Fully deterministic and gated.
func SLO(cfg Config) ([]*Table, error) {
	live, err := sloLiveTable(cfg)
	if err != nil {
		return nil, err
	}
	cache, err := sloCacheTable(cfg)
	if err != nil {
		return nil, err
	}
	return []*Table{live, cache, sloControlTable()}, nil
}

// sloLiveTable runs the live pipeline on the rebuild-per-step kd-tree
// (whose unbudgeted maintenance slices stall queries) and on OCTOPUS
// (which needs none), with a fixed maintenance budget vs the SLO
// controller steering toward the target.
func sloLiveTable(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "slo-live",
		Title: "SLO-driven serving: fixed maintenance budget vs adaptive controller",
		Columns: []string{
			"engine/mode", "target[us]", "p99[us]", "p99/target",
			"shed", "served", "budget-final[us]", "crawl-max", "cache-hit[%]",
		},
	}
	const target = 500 * time.Microsecond

	nQueries := cfg.Steps * cfg.QueriesPerStep
	if nQueries < 64 {
		nQueries = 64
	}
	if nQueries > 384 {
		nQueries = 384
	}
	nKNN := nQueries / 4

	type mode struct {
		name   string
		target time.Duration
	}
	for _, e := range Engines("KD-Tree", "OCTOPUS") {
		for _, md := range []mode{{"fixed", 0}, {"slo", target}} {
			m, err := meshgen.Build(meshgen.NeuroL2, cfg.Scale)
			if err != nil {
				return nil, err
			}
			deformer, err := sim.DefaultDeformer(meshgen.NeuroL2, sim.DefaultAmplitude)
			if err != nil {
				return nil, err
			}
			gen := workload.NewGenerator(m, 4096, cfg.Seed)
			base := gen.UniformQueries(nQueries, cfg.Selectivity)
			probes := gen.KNNQueries(nKNN, 4, 16, 0.05)
			// Issue every query twice: the second wave is the repeat
			// traffic the result cache exists for.
			queries := append(append([]geom.AABB(nil), base...), base...)
			knn := append(append([]query.KNNQuery(nil), probes...), probes...)

			pl := &query.Pipeline{
				Engine:            e.New(m),
				Mesh:              m,
				Deform:            deformer.Step,
				MinSteps:          2,
				MaintenanceBudget: 2 * time.Millisecond,
				TargetLatency:     md.target,
				CacheSize:         2048,
			}
			report := pl.Run(queries, knn)
			traces := report.Traces()
			_, p99 := query.LatencyStats(traces, 0.99)
			served := int64(len(traces)) - report.Sheds

			budget := pl.MaintenanceBudget
			var crawlMax int64
			if md.target > 0 {
				st := pl.SLOStats()
				budget = st.Budget
				crawlMax = st.CrawlMaxVisited
			}
			cs := pl.CacheStats()
			ratio := 0.0
			if target > 0 {
				ratio = float64(p99) / float64(target)
			}
			t.AddRow(
				e.Name+"/"+md.name,
				float64(target.Nanoseconds())/1e3,
				float64(p99.Nanoseconds())/1e3,
				ratio, report.Sheds, served,
				float64(budget.Nanoseconds())/1e3,
				crawlMax, 100*cs.HitRate(),
			)
		}
	}
	t.Notes = append(t.Notes,
		"fixed rows run the 2ms budget open-loop; slo rows let the controller adapt it toward the target",
		"wall-clock dependent: not trend-gated; the deterministic serving cells live in slo-cache and slo-control",
		fmt.Sprintf("%d range + %d kNN queries per run, each issued twice (cache repeat traffic)", nQueries, nKNN),
	)
	return t, nil
}

// sloCacheTable drills the result cache deterministically: localized
// blob deformations produce real dirty regions, every query repeats each
// epoch, and every hit is re-executed against the engine and compared
// bit-for-bit. Single-threaded, no wall clock — every cell is exact.
func sloCacheTable(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "slo-cache",
		Title: "Result cache: deterministic hit/invalidation drill (NeuroL2, blob deformations)",
		Columns: []string{
			"kind", "lookups", "hits", "hit-rate[%]", "mismatches", "invalidated", "flushes",
		},
	}
	m, err := meshgen.Build(meshgen.NeuroL2, cfg.Scale)
	if err != nil {
		return nil, err
	}
	cur := core.New(m).NewCursor()

	gen := workload.NewGenerator(m, 4096, cfg.Seed)
	nRange := cfg.Steps * cfg.QueriesPerStep
	if nRange < 48 {
		nRange = 48
	}
	if nRange > 192 {
		nRange = 192
	}
	queries := gen.UniformQueries(nRange, cfg.Selectivity)
	probes := gen.KNNQueries(nRange/2, 4, 12, 0.05)

	// Blob deformation: each epoch displaces only the vertices within a
	// small ball, so the dirty region localizes and most cache entries
	// provably survive. Centers rotate through the mesh deterministically.
	orig := append([]geom.Vec3(nil), m.Positions()...)
	diag := m.Bounds().Size().Len()
	radius := 0.08 * diag
	amp := 0.002 * diag

	const epochs = 8
	cache := query.NewResultCache(4 * (len(queries) + len(probes)))
	var stats struct {
		rangeLookups, rangeHits, rangeMismatch int64
		knnLookups, knnHits, knnMismatch       int64
	}
	for e := 0; e < epochs; e++ {
		center := orig[(e*7919)%len(orig)]
		m.Deform(func(pos []geom.Vec3) {
			for i := range pos {
				if pos[i].Sub(center).Len() < radius {
					// A deterministic, index-dependent displacement.
					s := amp * math.Sin(float64(i)+float64(e))
					pos[i].X += s
					pos[i].Y -= s / 2
				}
			}
		})
		head := m.Epoch()
		cache.Apply(m.DirtySince(cache.Stats().ValidEpoch))

		for _, q := range queries {
			stats.rangeLookups++
			if res, epoch, hit := cache.GetRange(q); hit {
				stats.rangeHits++
				// The claimed epoch must be the head (Apply just
				// validated every surviving entry through it), and the
				// result must be bit-equal to fresh execution.
				fresh := cur.Query(q, nil)
				if epoch != head || !sameIDs(res, fresh) {
					stats.rangeMismatch++
				}
				continue
			}
			cache.KeepRange(q, cur, cur.Query(q, nil))
		}
		for _, p := range probes {
			stats.knnLookups++
			if res, epoch, hit := cache.GetKNN(p.P, p.K); hit {
				stats.knnHits++
				fresh := cur.KNN(p.P, p.K, nil)
				if epoch != head || !sameIDs(res, fresh) {
					stats.knnMismatch++
				}
				continue
			}
			cache.KeepKNN(p.P, p.K, cur, cur.KNN(p.P, p.K, nil))
		}
	}

	cs := cache.Stats()
	rate := func(hits, lookups int64) float64 {
		if lookups == 0 {
			return 0
		}
		return 100 * float64(hits) / float64(lookups)
	}
	t.AddRow("range", stats.rangeLookups, stats.rangeHits,
		rate(stats.rangeHits, stats.rangeLookups), stats.rangeMismatch, "-", "-")
	t.AddRow("knn", stats.knnLookups, stats.knnHits,
		rate(stats.knnHits, stats.knnLookups), stats.knnMismatch, "-", "-")
	t.AddRow("total", stats.rangeLookups+stats.knnLookups,
		stats.rangeHits+stats.knnHits,
		rate(stats.rangeHits+stats.knnHits, stats.rangeLookups+stats.knnLookups),
		stats.rangeMismatch+stats.knnMismatch, cs.Invalidated, cs.Flushes)
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d epochs x (%d range + %d kNN) single-threaded lookups; blob radius %.0f%% of the bounds diagonal",
			epochs, len(queries), len(probes), 100*radius/diag),
		"every hit is re-executed and compared bit-for-bit: mismatches must be 0",
		"all cells are deterministic (no wall clock, no concurrency) and trend-gated at '='",
	)
	return t, nil
}

// sameIDs reports whether two result slices are identical element-wise.
func sameIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sloControlTable scripts the controller through latency phases and
// snapshots its actuators after each — the deterministic counterpart of
// the slo-live demonstration.
func sloControlTable() *Table {
	t := &Table{
		ID:    "slo-control",
		Title: "SLO controller: actuator ladder under scripted latency phases (target 1ms, budget ceiling 2ms)",
		Columns: []string{
			"phase", "p99[us]", "budget[us]", "window-shift", "crawl-max",
			"tightenings", "relaxations",
		},
	}
	const (
		target = time.Millisecond
		ceil   = 2 * time.Millisecond
		window = 256 // the controller's sliding-window size
	)
	c := query.NewSLOController(target, ceil)
	observe := func(d time.Duration) {
		for i := 0; i < window; i++ {
			c.Observe(d)
		}
	}
	snapshot := func(phase string) {
		st := c.Stats()
		t.AddRow(phase,
			float64(st.LastP99.Nanoseconds())/1e3,
			float64(st.Budget.Nanoseconds())/1e3,
			st.WindowShift, st.CrawlMaxVisited,
			st.Tightenings, st.Relaxations,
		)
	}

	// Phase 1: the SLO holds — every actuator stays relaxed.
	observe(target / 2)
	for i := 0; i < 8; i++ {
		c.TickDecide()
	}
	snapshot("meeting-8")

	// Phase 2: 5x overload for 8 ticks — the budget halves to its floor,
	// the admission window starts shifting after 4 consecutive misses,
	// and the first crawl tightening lands.
	observe(5 * target)
	for i := 0; i < 8; i++ {
		c.TickDecide()
	}
	snapshot("overload-8")

	// Phase 3: 16 more overloaded ticks — the shift clamps at its max and
	// the crawl budget keeps halving on its cooldown.
	for i := 0; i < 16; i++ {
		c.TickDecide()
	}
	snapshot("overload-24")

	// Phase 4: the SLO holds again — budget and window recover, and the
	// crawl budget relaxes back to exact execution exactly once.
	observe(target / 2)
	for i := 0; i < 40; i++ {
		c.TickDecide()
	}
	snapshot("recovered")

	t.Notes = append(t.Notes,
		"deterministic: the controller's decisions depend only on the scripted observations",
		"budget floor = ceiling/32; crawl ladder 4096 -> halving per 8-tick cooldown; relaxation x4 back to 0 (exact)",
	)
	return t
}
