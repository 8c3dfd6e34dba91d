package query_test

// Pipeline concurrency suite (run under -race in CI): a writer goroutine
// steps every deformer from internal/sim while range and kNN batches
// drain through the pipeline's worker pool, across all 9 engines. The
// snapshot-consistency companion (snapshot_test.go) checks the results;
// this file checks the machinery — overlap actually happens and traces
// are coherent.

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/grid"
	"octopus/internal/kdtree"
	"octopus/internal/linearscan"
	"octopus/internal/lurtree"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/octree"
	"octopus/internal/query"
	"octopus/internal/qutrade"
	"octopus/internal/sim"
)

// buildBox returns an n^3-cell unit tetrahedral block.
func buildBox(t testing.TB, n int) *mesh.Mesh {
	t.Helper()
	m, err := meshgen.BuildBoxTet(n, n, n, 1.0/float64(n))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// engineFactories lists every engine in the repository, the full matrix
// of the live-pipeline contract.
func engineFactories() []struct {
	name string
	make func(m *mesh.Mesh) query.ParallelKNNEngine
} {
	return []struct {
		name string
		make func(m *mesh.Mesh) query.ParallelKNNEngine
	}{
		{"OCTOPUS", func(m *mesh.Mesh) query.ParallelKNNEngine { return core.New(m) }},
		{"OCTOPUS-CON", func(m *mesh.Mesh) query.ParallelKNNEngine { return core.NewCon(m, 0) }},
		{"OCTOPUS-Hybrid", func(m *mesh.Mesh) query.ParallelKNNEngine {
			return core.NewHybrid(m, 0, core.Calibrate(m))
		}},
		{"LinearScan", func(m *mesh.Mesh) query.ParallelKNNEngine { return linearscan.New(m) }},
		{"OCTREE", func(m *mesh.Mesh) query.ParallelKNNEngine { return octree.NewEngine(m, 64) }},
		{"KD-Tree", func(m *mesh.Mesh) query.ParallelKNNEngine { return kdtree.NewEngine(m, 64) }},
		{"LU-Grid", func(m *mesh.Mesh) query.ParallelKNNEngine { return grid.NewLUEngine(m, 512) }},
		{"LUR-Tree", func(m *mesh.Mesh) query.ParallelKNNEngine { return lurtree.New(m, 16) }},
		{"QU-Trade", func(m *mesh.Mesh) query.ParallelKNNEngine { return qutrade.New(m, 16, 0) }},
	}
}

// allDeformers is a sim.Deformer that cycles through every deformer kind
// in internal/sim, so a multi-step pipeline run exercises them all.
type allDeformers struct{ ds []sim.Deformer }

func newAllDeformers(amplitude float64) *allDeformers {
	return &allDeformers{ds: []sim.Deformer{
		&sim.NoiseDeformer{Amplitude: amplitude, Frequency: 1.5, Seed: 7},
		&sim.AffineDeformer{
			Pivot: geom.V(0.5, 0.5, 0.5), MaxScale: amplitude,
			MaxRotate: amplitude, MaxShift: amplitude / 2, Seed: 11,
		},
		&sim.WaveDeformer{Amplitude: amplitude, WaveLength: 2.5, Speed: 0.35},
		&sim.CompressDeformer{Pivot: geom.V(0.5, 0.5, 0.5), MaxCompress: amplitude, Period: 8},
		&sim.BlendDeformer{
			Centers: []geom.Vec3{{X: 0.3, Y: 0.3, Z: 0.3}, {X: 0.7, Y: 0.7, Z: 0.7}},
			Radius:  0.4, Amplitude: amplitude, Seed: 13,
		},
	}}
}

func (a *allDeformers) Step(step int, pos []geom.Vec3) {
	a.ds[step%len(a.ds)].Step(step, pos)
}

// testWorkload builds deterministic range queries and kNN probes around
// mesh vertices.
func testWorkload(m *mesh.Mesh, nRange, nKNN int, seed int64) ([]geom.AABB, []query.KNNQuery) {
	r := rand.New(rand.NewSource(seed))
	queries := make([]geom.AABB, nRange)
	for i := range queries {
		c := m.Position(int32(r.Intn(m.NumVertices())))
		queries[i] = geom.BoxAround(c, 0.2+0.4*r.Float64())
	}
	probes := make([]query.KNNQuery, nKNN)
	for i := range probes {
		c := m.Position(int32(r.Intn(m.NumVertices())))
		jitter := geom.V(0.05*r.Float64(), 0.05*r.Float64(), 0.05*r.Float64())
		probes[i] = query.KNNQuery{P: c.Add(jitter), K: 1 + r.Intn(10)}
	}
	return queries, probes
}

// TestPipelineRaceAllEngines runs the concurrent deform+query pipeline
// for every engine with every deformer kind stepping the mesh. Under
// -race this is the proof that the epoch-pinned read path has no data
// races; without -race it still checks that overlap really occurred and
// that every trace is coherent (answer epoch never ahead of head).
func TestPipelineRaceAllEngines(t *testing.T) {
	for _, f := range engineFactories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			m := buildBox(t, 6)
			eng := f.make(m)
			deformer := newAllDeformers(0.004)
			queries, probes := testWorkload(m, 48, 24, 1)

			pl := &query.Pipeline{
				Engine:   eng,
				Mesh:     m,
				Deform:   deformer.Step,
				Workers:  4,
				MinSteps: 5,
			}
			report := pl.Run(queries, probes)

			if report.Steps < pl.MinSteps {
				t.Fatalf("writer published %d steps, want >= %d", report.Steps, pl.MinSteps)
			}
			if uint64(report.Steps) > m.Epoch() {
				t.Fatalf("steps %d exceed head epoch %d", report.Steps, m.Epoch())
			}
			for i, tr := range report.Traces() {
				if tr.Epoch > tr.HeadEpoch {
					t.Fatalf("trace %d: answer epoch %d ahead of head %d", i, tr.Epoch, tr.HeadEpoch)
				}
			}
			for i, res := range report.KNNResults {
				if len(res) != probes[i].K {
					t.Fatalf("probe %d: %d results, want %d", i, len(res), probes[i].K)
				}
			}
		})
	}
}

// TestPipelineTickAndMaxSteps checks the writer's pacing knobs: a tick
// bounds the step rate, MaxSteps caps it even with queries outstanding.
func TestPipelineTickAndMaxSteps(t *testing.T) {
	m := buildBox(t, 4)
	eng := core.New(m)
	queries, _ := testWorkload(m, 32, 0, 2)
	pl := &query.Pipeline{
		Engine:   eng,
		Mesh:     m,
		Deform:   newAllDeformers(0.004).Step,
		Tick:     time.Millisecond,
		Workers:  2,
		MinSteps: 2,
		MaxSteps: 3,
	}
	report := pl.Run(queries, nil)
	if report.Steps > 3 {
		t.Fatalf("MaxSteps=3 but writer published %d", report.Steps)
	}
	if report.Steps < 2 {
		t.Fatalf("MinSteps=2 but writer published %d", report.Steps)
	}
	for i, res := range report.RangeResults {
		if res == nil && len(query.BruteForce(m, queries[i])) > 0 {
			t.Fatalf("query %d: nil result", i)
		}
	}
}

// TestExecuteBatchOverlapsDeform checks the batch executors directly
// under a concurrent writer (the ExecuteBatch contract allows it):
// batches run while Mesh.Deform publishes
// epochs, and with OCTOPUS (maintenance-free) every result matches brute
// force at the cursor's pinned epoch replayed offline.
func TestExecuteBatchOverlapsDeform(t *testing.T) {
	m := buildBox(t, 6)
	eng := core.New(m)
	deformer := &sim.NoiseDeformer{Amplitude: 0.003, Frequency: 2, Seed: 3}
	queries, probes := testWorkload(m, 40, 16, 4)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for step := 0; ; step++ {
			select {
			case <-stop:
				return
			default:
			}
			m.Deform(func(pos []geom.Vec3) { deformer.Step(step, pos) })
		}
	}()
	for i := 0; i < 4; i++ {
		query.ExecuteBatch(eng, queries, 3)
		query.ExecuteKNNBatch(eng, probes, 3)
	}
	close(stop)
	<-done
}

// TestHybridResidentScanRouteOverlapsDeform covers the resident
// (Engine.Query/KNN) path of the hybrid under a concurrent writer: a
// whole-mesh box forces the scan route, which must execute against the
// resident cursor's pinned epoch exactly like the cursor path does.
// Run under -race this guards the scan-route pin against regressing to
// live-array reads.
func TestHybridResidentScanRouteOverlapsDeform(t *testing.T) {
	m := buildBox(t, 6)
	h := core.NewHybrid(m, 0, core.Calibrate(m))
	deformer := &sim.NoiseDeformer{Amplitude: 0.003, Frequency: 2, Seed: 17}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for step := 0; ; step++ {
			select {
			case <-stop:
				return
			default:
			}
			m.Deform(func(pos []geom.Vec3) { deformer.Step(step, pos) })
		}
	}()
	whole := geom.BoxAround(geom.V(0.5, 0.5, 0.5), 10) // high selectivity: routes to the scan
	for i := 0; i < 200; i++ {
		if got := h.Query(whole, nil); len(got) != m.NumVertices() {
			t.Fatalf("whole-mesh query returned %d of %d vertices", len(got), m.NumVertices())
		}
		if got := h.KNN(geom.V(0.5, 0.5, 0.5), m.NumVertices(), nil); len(got) != m.NumVertices() {
			t.Fatalf("whole-mesh kNN returned %d of %d vertices", len(got), m.NumVertices())
		}
	}
	if _, scan := h.Routed(); scan == 0 {
		t.Fatal("workload never routed to the scan side")
	}
	close(stop)
	<-done
}

// TestInPlaceAfterPublish runs the paper's loop on a mesh whose front is
// the second buffer: one Deform, then in-place writes to Positions()
// followed by Step. Every engine must read the buffer the writes landed
// in.
func TestInPlaceAfterPublish(t *testing.T) {
	for _, f := range engineFactories() {
		t.Run(f.name, func(t *testing.T) {
			m := buildBox(t, 6)
			eng := f.make(m)
			deformer := &sim.NoiseDeformer{Amplitude: 0.02, Frequency: 1.5, Seed: 23}
			queries, probes := testWorkload(m, 24, 12, 6)
			m.Deform(func(pos []geom.Vec3) { deformer.Step(0, pos) })
			for step := 1; step <= 3; step++ {
				deformer.Step(step, m.Positions())
				eng.Step()
				if m.Epoch() != 1 {
					t.Fatalf("in-place step moved the epoch to %d", m.Epoch())
				}
				for i, q := range queries {
					if d := query.Diff(eng.Query(q, nil), query.BruteForce(m, q)); d != "" {
						t.Fatalf("step %d range %d: %s", step, i, d)
					}
				}
				for i, p := range probes {
					got, want := eng.KNN(p.P, p.K, nil), query.BruteForceKNN(m, p.P, p.K)
					if !slices.Equal(got, want) {
						t.Fatalf("step %d kNN %d: got %v, want %v", step, i, got, want)
					}
				}
			}
		})
	}
}
