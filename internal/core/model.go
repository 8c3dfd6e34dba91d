package core

import (
	"slices"
	"time"

	"octopus/internal/geom"
	"octopus/internal/mesh"
)

// Constants holds the machine-dependent access costs of the analytical
// model (§IV-G): CS is the cost of touching one vertex sequentially (the
// linear scan's and surface probe's unit cost), CR the cost of one access
// the crawl makes (in the paper a vertex reached through the adjacency
// list, dominated by random memory access; here a position a crawl-block
// visit tests or an adjacency entry the crawl reads). On the paper's
// hardware CR ≈ 4 × CS.
type Constants struct {
	CS float64 // seconds per sequential vertex access
	CR float64 // seconds per crawl access
}

// Ratio returns CS/CR, the constant appearing in Equations 3, 5 and 6.
func (c Constants) Ratio() float64 {
	if c.CR == 0 {
		return 1
	}
	return c.CS / c.CR
}

// CostOctopus evaluates Equation 3: the predicted time of one OCTOPUS
// query on a dataset with V vertices, surface-to-volume ratio S, mesh
// degree M, at the given query selectivity (fraction, not percent).
func CostOctopus(V int, S, M, selectivity float64, c Constants) float64 {
	return c.CS*(S*float64(V)) + c.CR*M*selectivity*float64(V)
}

// CostScan evaluates Equation 4: the predicted time of one linear scan.
func CostScan(V int, c Constants) float64 {
	return c.CS * float64(V)
}

// PredictedSpeedup evaluates Equation 5: OCTOPUS' speedup over the linear
// scan. It is independent of V.
func PredictedSpeedup(S, M, selectivity float64, c Constants) float64 {
	denom := S + M*selectivity/c.Ratio()
	if denom <= 0 {
		return 0
	}
	return 1 / denom
}

// BreakEvenSelectivity evaluates Equation 6: the selectivity above which
// the linear scan outperforms OCTOPUS on a dataset with surface ratio S
// and mesh degree M.
func BreakEvenSelectivity(S, M float64, c Constants) float64 {
	if M <= 0 {
		return 1
	}
	return (1 - S) * c.Ratio() / M
}

// Calibrate measures CS and CR on the current machine using the given mesh
// (the paper determines them "empirically ... by averaging a long run of a
// linear scan and graph traversal over the smallest dataset"). The mesh is
// only read. The long run alternates scan and crawl rounds in one window,
// and each constant is the median of its rounds' costs per access: on a
// loaded machine a round the scheduler preempted is left out instead of
// skewing the ratio.
func Calibrate(m *mesh.Mesh) Constants {
	pos := m.Positions()
	if len(pos) == 0 {
		return Constants{CS: 1, CR: 1}
	}
	bounds := m.Bounds()
	probe := geom.BoxAround(bounds.Center(), bounds.Size().Len()/10)

	// CR's round: a crawl of the whole mesh by the crawl itself
	// (crawler.crawl over a box that holds every vertex), so the constant
	// cannot drift from the code it predicts. The unit is one access the
	// crawl makes — a position it tests or an adjacency entry it reads —
	// so a round counts both; the first, untimed round counts them and
	// allocates the crawl's scratch.
	all := geom.AABB{
		Min: bounds.Min.Sub(geom.V(1, 1, 1)),
		Max: bounds.Max.Add(geom.V(1, 1, 1)),
	}
	bfs := crawler{m: m, pos: pos}
	seed := []int32{0}
	queue := bfs.crawl(all, seed, make([]int32, 0, len(pos)))
	accesses := bfs.crawlTested + bfs.crawlReads

	// CS's round: sequential passes with containment test and result
	// collection — exactly the linear scan's (and surface probe's)
	// per-vertex work — as many as make about a crawl round's accesses.
	passes := max(1, int(accesses)/len(pos))
	var out []int32
	var scans, crawls []float64 // seconds per access, one per round
	for start := time.Now(); time.Since(start) < 60*time.Millisecond; {
		t0 := time.Now()
		for range passes {
			out = out[:0]
			for i, p := range pos {
				if probe.Contains(p) {
					out = append(out, int32(i))
				}
			}
		}
		t1 := time.Now()
		scans = append(scans, t1.Sub(t0).Seconds()/float64(passes*len(pos)))
		queue = bfs.crawl(all, seed, queue[:0])
		crawls = append(crawls, time.Since(t1).Seconds()/float64(accesses))
	}
	slices.Sort(scans)
	slices.Sort(crawls)
	cs, cr := scans[len(scans)/2], crawls[len(crawls)/2]
	sink(len(out), float64(len(queue)))
	return Constants{CS: cs, CR: cr}
}

// sink defeats dead-code elimination of the calibration loops.
//
//go:noinline
func sink(int, float64) {}
