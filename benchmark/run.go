package main

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/query"
)

// runConfig selects one run: one workload, one seed, one measured pass
// (wrappers off) or one traced pass.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	OutDir   string
	Log      io.Writer // progress and tables; the result line goes elsewhere
}

func (c runConfig) dur(share float64) time.Duration {
	return time.Duration(share * float64(c.Seconds) * float64(time.Second))
}

// runResult is what one run measured. Metrics holds the end-to-end
// metrics of a measured pass or the per-layer metrics of a traced pass.
type runResult struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Mismatch   int64              `json:"verify_mismatches"`
	Verified   int64              `json:"verify_sampled"`
	Incomplete int64              `json:"verify_incomplete"`
	Invalid    string             `json:"invalid,omitempty"`
	OpDigest   string             `json:"op_digest"`
	SetupRaw   []float64          `json:"setup_s_raw"`
	WallS      float64            `json:"wall_s"`
	Metrics    map[string]float64 `json:"metrics"`
	// Per gated timing: its value without the reference-speed scaling, and
	// the quartile spread of its windows' values.
	Raw          map[string]float64 `json:"raw,omitempty"`
	WindowSpread map[string]float64 `json:"window_spread,omitempty"`

	ref *refKernel
}

// verifySamples is how many queries are re-issued against brute force
// after a run, with the writer quiesced.
const verifySamples = 200

// maxIncompleteShare caps the sampled answers verify may put down to the
// edge-connectivity caveat. Deformation produces 0 to 3 % of them, the
// most on serve-hotspot, whose 512 queries sit under 160 blob steps.
const maxIncompleteShare = 0.10

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// setupRepeats is how often a run sets the system up; setup_s is the
// median, which a single slow start cannot move.
const setupRepeats = 3

var workloadRuns = map[string]func(runConfig, *runResult) error{
	"sim-step":      runSimStep,
	"live-inproc":   runLiveInproc,
	"serve-uniform": func(c runConfig, r *runResult) error { return runServe(c, r, serveUniform) },
	"serve-hotspot": func(c runConfig, r *runResult) error { return runServe(c, r, serveHotspot) },
}

// runOnce executes one run and checks its result is complete.
func runOnce(cfg runConfig) (*runResult, error) {
	run, ok := workloadRuns[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.Workload, workloadNames())
	}
	res := &runResult{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Metrics: make(map[string]float64), Raw: make(map[string]float64), WindowSpread: make(map[string]float64),
		ref: newRefKernel(),
	}
	start := time.Now()
	if err := run(cfg, res); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	res.WallS = time.Since(start).Seconds()
	res.ref = nil // the suite keeps every result; the kernel's array must not stay live with them
	// The sampled answers that are wrong (see verify) count as failed
	// operations; a run is correct when it is valid and they are at most
	// 1 % of the sample.
	res.Failed += res.Mismatch
	res.Attempted += res.Verified
	res.Correct = res.Invalid == "" && res.Verified > 0 && res.Mismatch*100 <= res.Verified
	res.Metrics["ok_frac"] = 1 - ratio(float64(res.Failed), float64(res.Attempted))
	res.Metrics["verify.incomplete"] = float64(res.Incomplete)
	want := endToEnd
	if cfg.Trace {
		want = perLayer
	}
	out := make(map[string]float64, len(want))
	for _, m := range want {
		v, ok := res.Metrics[m.Name]
		if !ok && !cfg.Trace {
			return nil, fmt.Errorf("%s: metric %s was not measured", cfg.Workload, m.Name)
		}
		out[m.Name] = v // a layer that does no work on this workload reports 0
	}
	res.Metrics = out
	return res, nil
}

// measureSetup runs build setupRepeats times, tearing down every product
// but the last, and reports the median time plus the live heap
// afterwards. The time is not brought to reference speed: measured, a
// set-up follows the host's slow phases far less than the kernel does,
// and scaling it spread it wider (10 to 29 % over ten seeds) than leaving
// it (8 to 23 %).
func measureSetup(res *runResult, build func() (teardown func(), err error)) (teardown func(), err error) {
	for i := 0; i < setupRepeats; i++ {
		if teardown != nil {
			teardown()
		}
		t0 := time.Now()
		if teardown, err = build(); err != nil {
			return nil, err
		}
		res.SetupRaw = append(res.SetupRaw, time.Since(t0).Seconds())
	}
	res.Metrics["setup_s"] = median(res.SetupRaw)
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Metrics["mem_mb"] = float64(ms.HeapAlloc-res.ref.bytes()) / 1e6 // the kernel's array is the benchmark's, not the system's
	return teardown, nil
}

// usage is a snapshot of the process-wide costs the runtime.* layer
// metrics are deltas of.
type usage struct {
	cpu     time.Duration
	mallocs uint64
	pauseNS uint64
	numGC   uint32
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), mallocs: ms.Mallocs, pauseNS: ms.PauseTotalNs, numGC: ms.NumGC}
}

func (a usage) sub(b usage) usage {
	return usage{a.cpu - b.cpu, a.mallocs - b.mallocs, a.pauseNS - b.pauseNS, a.numGC - b.numGC}
}

func (a usage) add(b usage) usage {
	return usage{a.cpu + b.cpu, a.mallocs + b.mallocs, a.pauseNS + b.pauseNS, a.numGC + b.numGC}
}

func (res *runResult) setRuntime(before, after usage, queries int) {
	m := res.Metrics
	m["runtime.cpu_us_per_q"] = ratio(us(after.cpu-before.cpu), float64(queries))
	m["runtime.allocs_per_q"] = ratio(float64(after.mallocs-before.mallocs), float64(queries))
	m["runtime.gc_pause_ms"] = float64(after.pauseNS-before.pauseNS) / 1e6
	m["runtime.gc_cycles"] = float64(after.numGC - before.numGC)
}

// setCore attaches core.Stats as per-client-query averages.
func (res *runResult) setCore(s core.Stats, queries int) {
	m, q := res.Metrics, float64(queries)
	m["core.probe_us_per_q"] = ratio(us(s.SurfaceProbe), q)
	m["core.walk_us_per_q"] = ratio(us(s.DirectedWalk), q)
	m["core.crawl_us_per_q"] = ratio(us(s.Crawl), q)
	m["core.probe_checked_per_q"] = ratio(float64(s.ProbeChecked), q)
	m["core.walk_visited_per_q"] = ratio(float64(s.WalkVisited), q)
	m["core.crawl_visited_per_q"] = ratio(float64(s.CrawlVisited), q)
	m["core.walks_frac"] = ratio(float64(s.DirectedWalks), float64(s.Queries))
	m["core.visited_per_result"] = ratio(float64(s.WalkVisited+s.CrawlVisited), float64(s.Results))
}

// setBudget completes the blocking-path table from its filled rows: the
// residual is the share of the traced mean client.query the rows leave
// unexplained.
func (res *runResult) setBudget(totalUS float64) {
	m := res.Metrics
	m["budget.total_us"] = totalUS
	sum := 0.0
	for _, row := range budgetRows {
		sum += m[row]
	}
	m["trace.residual_frac"] = ratio(totalUS-sum, totalUS)
}

func (res *runResult) printBudget(w io.Writer) {
	m := res.Metrics
	fmt.Fprintf(w, "  blocking-path budget (traced mean client.query = %.1f us)\n", m["budget.total_us"])
	for _, row := range budgetRows {
		fmt.Fprintf(w, "    %-24s %10.1f us  %5.1f %%\n", row, m[row], 100*ratio(m[row], m["budget.total_us"]))
	}
	fmt.Fprintf(w, "    %-24s %10s     %5.1f %%\n", "residual", "", 100*m["trace.residual_frac"])
}

// sumStats adds up the OCTOPUS engines' folded statistics.
func sumStats(engines []*core.Octopus) core.Stats {
	var s core.Stats
	for _, e := range engines {
		s.Add(e.Stats())
	}
	return s
}

// verify re-issues a seeded sample of distinct pool queries on cur and
// compares with brute force over global, which must be quiescent at the
// head epoch: sorted ids for range, (dist,id) order for kNN. An answer
// that differs is one of two things.
//
// Unsound — an id that is not in the box, a duplicate, neighbours out of
// (dist,id) order at the head positions, an error: the state or the stack
// around the algorithm is wrong, and it counts as a mismatch.
//
// Sound but incomplete: OCTOPUS reports only what it reaches along mesh
// edges inside the box, so once deformation has pushed a vertex out of
// edge-contact with the rest of its result set the crawl returns a true
// subset (for kNN: a farther neighbour in the missing one's place) — the
// caveat genPools filters by on the pristine mesh. Which piece a crawl
// reaches depends on its seeds, so a shard engine, a cached answer and a
// fresh engine need not miss the same vertex, and no second engine can
// say which queries are exempt. Incomplete answers are counted and
// capped instead: beyond maxIncompleteShare of the sample they are
// mismatches too, so an algorithm that drops results cannot hide here.
func (res *runResult) verify(cur query.Cursor, global *mesh.Mesh, ranges []geom.AABB, knns []query.KNNQuery, seed int64) {
	rng := newRand(seed ^ 0x7e51)
	er, _ := cur.(query.ErrorReporter)
	bad := func() bool { return er != nil && er.LastError() != nil }
	kc := cur.(query.KNNCursor)
	kIdx := rng.Perm(len(knns))
	kIdx = kIdx[:min(verifySamples/knnEvery, len(kIdx))]
	rIdx := rng.Perm(len(ranges))
	rIdx = rIdx[:min(verifySamples-len(kIdx), len(rIdx))]
	incomplete := int64(0)
	count := func(equal, sound bool) {
		switch {
		case bad() || !sound:
			res.Mismatch++
		case !equal:
			incomplete++
		}
	}
	pos := global.Positions()
	for _, i := range kIdx {
		q := knns[i]
		got, want := kc.KNN(q.P, q.K, nil), query.BruteForceKNN(global, q.P, q.K)
		count(slices.Equal(got, want), len(got) <= len(want) && nearestFirst(pos, q.P, got))
	}
	for _, i := range rIdx {
		q := ranges[i]
		got, want := cur.Query(q, nil), query.BruteForce(global, q)
		equal := query.Diff(got, want) == "" // sorts both
		count(equal, subsetOf(got, want))
	}
	checked := int64(len(kIdx) + len(rIdx))
	res.Verified += checked
	res.Incomplete += incomplete
	if float64(incomplete) > maxIncompleteShare*float64(checked) {
		res.Mismatch += incomplete
	}
}

// subsetOf reports whether the ascending ids of got are distinct and all
// among the ascending ids of want.
func subsetOf(got, want []int32) bool {
	j := 0
	for i, id := range got {
		if i > 0 && id == got[i-1] {
			return false
		}
		for j < len(want) && want[j] < id {
			j++
		}
		if j == len(want) || want[j] != id {
			return false
		}
	}
	return true
}

// nearestFirst reports whether ids are vertices of pos in strictly
// ascending (distance to p, id) order, the kNN ordering contract.
func nearestFirst(pos []geom.Vec3, p geom.Vec3, ids []int32) bool {
	for i, id := range ids {
		if id < 0 || int(id) >= len(pos) {
			return false
		}
		if i == 0 {
			continue
		}
		a, b := pos[ids[i-1]].Dist2(p), pos[id].Dist2(p)
		if a > b || (a == b && ids[i-1] >= id) {
			return false
		}
	}
	return true
}

func (c runConfig) tracePath() string {
	return filepath.Join(c.OutDir, "trace-"+c.Workload+".jsonl")
}
