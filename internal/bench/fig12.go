package bench

import (
	"fmt"
	"math"
	"slices"
	"time"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/workload"
)

// fig12Reps is the number of alternated exact/sampled timing pairs per
// fig12b cell; the cell is their median ratio.
const fig12Reps = 5

// Fig12 regenerates Figure 12: the surface-approximation optimization
// (§IV-H2) — probing only a fraction of the surface trades accuracy for
// probe time. (a) result accuracy vs approximation fraction, (b) speedup
// over exact OCTOPUS. The sampled probe is this figure's own
// (sampledProbe), driven through the one walk and crawl of core
// (Cursor.QuerySeeded); a fraction of 1 is core's exact Query.
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

	// Fixed query sets per selectivity, shared across fractions, with the
	// brute-force result count of each set. Large enough that per-set
	// timing dominates measurement noise.
	querySets := make([][]geom.AABB, len(selectivities))
	truth := make([]int, len(selectivities))
	for i, sel := range selectivities {
		querySets[i] = gen.UniformQueries(cfg.QueriesPerStep*12, sel)
		for _, q := range querySets[i] {
			truth[i] += len(query.BruteForce(m, q))
		}
	}

	// One cursor runs every pass, exact (probe nil) and sampled, so
	// neither side is favoured by its engine or its caches. A pass
	// returns its result count and its time.
	cur := core.New(m).NewCursor().(*core.Cursor)
	var out []int32
	run := func(probe *sampledProbe, qs []geom.AABB) (got int, d time.Duration) {
		start := time.Now()
		for _, q := range qs {
			if probe == nil {
				out = cur.Query(q, out[:0])
			} else {
				out = cur.QuerySeeded(q, probe, out[:0])
			}
			got += len(out)
		}
		return got, time.Since(start)
	}
	for _, frac := range []float64{0.001, 0.01, 0.1, 1} {
		accRow := []interface{}{frac * 100}
		spdRow := []interface{}{frac * 100}
		for i, qs := range querySets {
			var probe *sampledProbe
			if frac < 1 {
				probe = newSampledProbe(m, frac)
			}
			// Warm-up passes, then the accuracy of the second sampled pass,
			// whose phases start at len(qs): the gated fig12a cells depend
			// on that order.
			run(nil, qs)
			run(probe, qs)
			acc := 100.0
			if got, _ := run(probe, qs); truth[i] > 0 {
				acc = 100 * float64(got) / float64(truth[i])
			}
			ratios := make([]float64, fig12Reps)
			for r := range ratios {
				// Alternate which side runs first, so neither always
				// follows the other's cache footprint.
				var d [2]time.Duration // exact, sampled
				for j := range d {
					side := (r + j) % 2
					_, d[side] = run([2]*sampledProbe{nil, probe}[side], qs)
				}
				ratios[r] = float64(d[0]) / float64(max(d[1], 1))
			}
			slices.Sort(ratios)
			accRow = append(accRow, acc)
			spdRow = append(spdRow, ratios[len(ratios)/2])
		}
		accuracy.AddRow(accRow...)
		speedup.AddRow(spdRow...)
	}
	accuracy.Notes = append(accuracy.Notes,
		"paper: >90% accuracy while ignoring 99.9% of surface vertices; accurate above 0.1% approximation",
		"bigger queries tolerate coarser approximation (more surface vertices inside)")
	speedup.Notes = append(speedup.Notes,
		"paper: speedup from skipping probe work; very coarse approximations speed up more at accuracy's expense",
		"the denominator is the exact block-box probe, which prunes by box; the paper's was the full linear pass, so a sampled pass has far less probe work to save here",
		fmt.Sprintf("median of %d ratios, each of one exact and one sampled pass over the same queries on one cursor, run in alternating order", fig12Reps))
	return []*Table{accuracy, speedup}, nil
}

// sampledProbe is the paper's approximate surface probe (§IV-H2), a
// core.SeedProbe: one containment test on every stride-th slot of the
// surface index, from a phase that rotates by one slot per query, with no
// block boxes. When it finds no seed, the walk starts at the surface
// vertex nearest q on the same lattice thinned to about 2 048 slots.
type sampledProbe struct {
	idx    *mesh.SurfaceIndex
	stride int
	phase  int
}

// newSampledProbe returns the probe of m's surface that samples about
// frac of it: a stride of 1/frac, clamped to the surface length. The
// clamp keeps at least one test per query on a tiny surface; a stride
// beyond the surface would let the rotating phase skip it whole — no
// seed and no walk start, an empty answer.
func newSampledProbe(m *mesh.Mesh, frac float64) *sampledProbe {
	idx := m.SurfaceIndex()
	return &sampledProbe{idx: idx, stride: max(1, min(int(1/frac), len(idx.Slots())))}
}

// Probe implements core.SeedProbe.
func (p *sampledProbe) Probe(q geom.AABB, pos []geom.Vec3, seeds []int32) ([]int32, int32) {
	slots := p.idx.Slots()
	phase := p.phase % p.stride
	p.phase++
	for i := phase; i < len(slots); i += p.stride {
		if v := slots[i]; q.Contains(pos[v]) {
			seeds = append(seeds, v)
		}
	}
	if len(seeds) > 0 {
		return seeds, -1
	}
	start, best := int32(-1), math.Inf(1)
	for i := phase; i < len(slots); i += p.stride * (1 + len(slots)/2048) {
		if d := q.Dist2(pos[slots[i]]); d < best {
			start, best = slots[i], d
		}
	}
	return seeds, start
}
