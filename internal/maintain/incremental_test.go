package maintain_test

// Incremental-equivalence suite: for every engine with a localized
// maintenance path, driving it through dirty-region tasks — sliced by
// hostile tiny budgets, across many deformation rounds, including
// drift past the original bounds — must leave it answering range and
// kNN queries bit-for-bit like brute force at the maintained epoch,
// i.e. exactly like a freshly built engine.

import (
	"fmt"
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
	"octopus/internal/maintain"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/octree"
	"octopus/internal/query"
	"octopus/internal/qutrade"
)

type incrementalCase struct {
	name string
	make func(m *mesh.Mesh) query.ParallelKNNEngine
}

func incrementalCases() []incrementalCase {
	return []incrementalCase{
		{"OCTREE", func(m *mesh.Mesh) query.ParallelKNNEngine { return octree.NewEngine(m, 32) }},
		{"KD-Tree", func(m *mesh.Mesh) query.ParallelKNNEngine { return kdtree.NewEngine(m, 32) }},
		{"LU-Grid", func(m *mesh.Mesh) query.ParallelKNNEngine { return grid.NewLUEngine(m, 256) }},
		{"LUR-Tree", func(m *mesh.Mesh) query.ParallelKNNEngine { return lurtree.New(m, 8) }},
		{"QU-Trade", func(m *mesh.Mesh) query.ParallelKNNEngine { return qutrade.New(m, 8, 0) }},
	}
}

func buildMesh(t testing.TB, n int) *mesh.Mesh {
	t.Helper()
	m, err := meshgen.BuildBoxTet(n, n, n, 1.0/float64(n))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// drive runs one maintenance round: take the dirty region, begin the
// engine's task, and run it to completion in budget-bounded slices.
// Returns the number of interrupted slices (to assert slicing really
// happened where expected).
func drive(t *testing.T, eng query.ParallelKNNEngine, m *mesh.Mesh, budget int) int {
	t.Helper()
	inc, ok := eng.(maintain.Incremental)
	if !ok {
		t.Fatalf("%s does not implement maintain.Incremental", eng.Name())
	}
	task := inc.BeginMaintenance(m.TakeDirty())
	if task == nil {
		return 0
	}
	interrupted := 0
	for i := 0; ; i++ {
		if i > 1<<20 {
			t.Fatal("task never completed")
		}
		if task.Run(time.Duration(budget)) {
			return interrupted
		}
		interrupted++
	}
}

// verify checks the engine against brute force at the current head for a
// spread of range and kNN queries.
func verify(t *testing.T, eng query.ParallelKNNEngine, m *mesh.Mesh, r *rand.Rand, round int) {
	t.Helper()
	for i := 0; i < 12; i++ {
		c := m.Position(int32(r.Intn(m.NumVertices())))
		q := geom.BoxAround(c, 0.05+0.3*r.Float64())
		got := append([]int32(nil), eng.Query(q, nil)...)
		want := query.BruteForce(m, q)
		if d := query.Diff(got, want); d != "" {
			t.Fatalf("round %d query %d (%v): %s", round, i, q, d)
		}
	}
	for i := 0; i < 8; i++ {
		p := m.Position(int32(r.Intn(m.NumVertices()))).Add(geom.V(0.01*r.Float64(), 0.01*r.Float64(), 0))
		k := 1 + r.Intn(9)
		got := eng.(query.KNNEngine).KNN(p, k, nil)
		want := query.BruteForceKNN(m, p, k)
		if len(got) != len(want) {
			t.Fatalf("round %d kNN %d: %d results, want %d", round, i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("round %d kNN %d: result[%d] = %d, want %d", round, i, j, got[j], want[j])
			}
		}
	}
}

// TestIncrementalMaintenanceEquivalence deforms a mesh through many
// rounds — localized jitter of a few vertices, whole-mesh drift, and
// excursions outside the original bounds — maintaining each engine only
// through sliced BeginMaintenance tasks, and checks exactness after
// every completed round.
func TestIncrementalMaintenanceEquivalence(t *testing.T) {
	for _, tc := range incrementalCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := buildMesh(t, 5)
			eng := tc.make(m)
			r := rand.New(rand.NewSource(11))
			sliced := 0

			for round := 0; round < 12; round++ {
				switch round % 3 {
				case 0: // localized: jitter a handful of vertices
					m.Deform(func(pos []geom.Vec3) {
						for j := 0; j < 5; j++ {
							v := r.Intn(len(pos))
							pos[v] = pos[v].Add(geom.V(0.3*r.Float64()-0.15, 0.3*r.Float64()-0.15, 0.3*r.Float64()-0.15))
						}
					})
				case 1: // global drift: every vertex moves a little
					m.Deform(func(pos []geom.Vec3) {
						for j := range pos {
							pos[j] = pos[j].Add(geom.V(0.02*r.Float64(), 0.02*r.Float64(), 0.02*r.Float64()))
						}
					})
				default: // excursion: push some vertices far outside the build bounds
					m.Deform(func(pos []geom.Vec3) {
						for j := 0; j < 3; j++ {
							v := r.Intn(len(pos))
							pos[v] = pos[v].Add(geom.V(3+r.Float64(), -2, 5*r.Float64()))
						}
					})
				}
				sliced += drive(t, eng, m, 1 /* ns: one stride per slice */)
				verify(t, eng, m, r, round)
			}
			if sliced == 0 && tc.name != "LU-Grid" {
				t.Log("note: no round was sliced (small mesh); budget path still exercised")
			}

			// The maintained engine must equal a freshly built one.
			fresh := tc.make(m)
			q := geom.BoxAround(geom.V(0.5, 0.5, 0.5), 0.4)
			got := append([]int32(nil), eng.Query(q, nil)...)
			want := append([]int32(nil), fresh.Query(q, nil)...)
			if d := query.Diff(got, want); d != "" {
				t.Fatalf("maintained vs fresh engine: %s", d)
			}
		})
	}
}

// TestIncrementalStructuralFallsBackToRebuild restructures the mesh
// (SplitCell adds a vertex) and checks that the next maintenance task is
// the full rebuild and leaves the engine exact over the grown vertex set.
func TestIncrementalStructuralFallsBackToRebuild(t *testing.T) {
	for _, tc := range incrementalCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := buildMesh(t, 4)
			m.EnableRestructuring()
			eng := tc.make(m)

			ci := -1
			for i := range m.Cells() {
				if !m.Cells()[i].Dead {
					ci = i
					break
				}
			}
			if _, _, err := m.SplitCell(ci); err != nil {
				t.Fatal(err)
			}
			d := m.TakeDirty()
			if !d.Structural {
				t.Fatal("SplitCell did not mark the dirty region structural")
			}
			inc := eng.(maintain.Incremental)
			task := inc.BeginMaintenance(d)
			if task == nil {
				t.Fatal("structural dirt must produce a task")
			}
			if !task.Run(1) {
				t.Fatal("the structural rebuild must complete in one slice (StepTask)")
			}
			r := rand.New(rand.NewSource(3))
			verify(t, eng, m, r, 0)
		})
	}
}

// TestStepMatchesTask runs one deformation sequence through two copies of
// every snapshot baseline: one maintained by the paper loop (in-place
// writes, then Step), the other by dirty-region tasks under a 1ns budget.
// Step is the task run over every vertex, so the two must answer every
// range and kNN query identically, and both must equal brute force —
// through localized moves, whole-mesh drift, excursions past the build
// bounds, a SplitCell whose new vertex sits exactly at the origin (the
// zero value a grown shadow holds for it, which the skip of unchanged
// vertices must not mistake for "unmoved"), and a DeleteCell.
func TestStepMatchesTask(t *testing.T) {
	for _, tc := range incrementalCases() {
		t.Run(tc.name, func(t *testing.T) {
			mStep, mTask := buildMesh(t, 5), buildMesh(t, 5)
			byStep, byTask := tc.make(mStep), tc.make(mTask)
			r := rand.New(rand.NewSource(23))

			// step applies fn to both meshes and maintains each engine its
			// own way.
			step := func(fn func(pos []geom.Vec3)) {
				fn(mStep.Positions())
				byStep.Step()
				mTask.Deform(fn)
				drive(t, byTask, mTask, 1)
			}
			check := func(stage string) {
				t.Helper()
				for i := 0; i < 16; i++ {
					c := mStep.Position(int32(r.Intn(mStep.NumVertices())))
					q := geom.BoxAround(c, 0.05+0.3*r.Float64())
					want := query.BruteForce(mStep, q)
					for _, eng := range []query.ParallelKNNEngine{byStep, byTask} {
						got := append([]int32(nil), eng.Query(q, nil)...)
						if d := query.Diff(got, want); d != "" {
							t.Fatalf("%s: %s range %d (%v): %s", stage, eng.Name(), i, q, d)
						}
					}
				}
				for i := 0; i < 8; i++ {
					p := mStep.Position(int32(r.Intn(mStep.NumVertices()))).Add(geom.V(0.01*r.Float64(), 0, 0.01*r.Float64()))
					k := 1 + r.Intn(9)
					want := query.BruteForceKNN(mStep, p, k)
					for _, eng := range []query.ParallelKNNEngine{byStep, byTask} {
						got := eng.(query.KNNEngine).KNN(p, k, nil)
						if len(got) != len(want) {
							t.Fatalf("%s: kNN %d: %d results, want %d", stage, i, len(got), len(want))
						}
						for j := range got {
							if got[j] != want[j] {
								t.Fatalf("%s: kNN %d: result[%d] = %d, want %d", stage, i, j, got[j], want[j])
							}
						}
					}
				}
			}

			for round := 0; round < 9; round++ {
				n := mStep.NumVertices()
				moved := make([]int32, 0, n)
				delta := make([]geom.Vec3, 0, n)
				switch round % 3 {
				case 0: // localized: a handful of vertices jump
					for j := 0; j < 5; j++ {
						moved = append(moved, int32(r.Intn(n)))
						delta = append(delta, geom.V(0.3*r.Float64()-0.15, 0.3*r.Float64()-0.15, 0.3*r.Float64()-0.15))
					}
				case 1: // whole-mesh drift
					for v := 0; v < n; v++ {
						moved = append(moved, int32(v))
						delta = append(delta, geom.V(0.02*r.Float64(), 0.02*r.Float64(), 0.02*r.Float64()))
					}
				default: // excursions far outside the build bounds
					for j := 0; j < 3; j++ {
						moved = append(moved, int32(r.Intn(n)))
						delta = append(delta, geom.V(3+r.Float64(), -2, 5*r.Float64()))
					}
				}
				step(func(pos []geom.Vec3) {
					for j, v := range moved {
						pos[v] = pos[v].Add(delta[j])
					}
				})
				check(fmt.Sprintf("round %d", round))
			}

			var cells []int // live cells: the first is split, a later one deleted
			for i, c := range mStep.Cells() {
				if !c.Dead {
					cells = append(cells, i)
				}
			}
			ci, cd := cells[0], cells[7]
			x, _, err := mStep.SplitCell(ci)
			if err != nil {
				t.Fatal(err)
			}
			if xt, _, err := mTask.SplitCell(ci); err != nil || xt != x {
				t.Fatalf("task mesh split gave vertex %d (%v), want %d", xt, err, x)
			}
			step(func(pos []geom.Vec3) { pos[x] = geom.Vec3{} })
			check("split")
			origin := geom.BoxAround(geom.Vec3{}, 1e-9)
			for _, eng := range []query.ParallelKNNEngine{byStep, byTask} {
				if !slices.Contains(eng.Query(origin, nil), x) {
					t.Fatalf("%s: split vertex %d at the origin is not indexed", eng.Name(), x)
				}
			}

			if _, err := mStep.DeleteCell(cd); err != nil {
				t.Fatal(err)
			}
			if _, err := mTask.DeleteCell(cd); err != nil {
				t.Fatal(err)
			}
			step(func(pos []geom.Vec3) { pos[x] = pos[x].Add(geom.V(0.01, 0.02, 0.03)) })
			check("delete")
		})
	}
}

// TestMaintenanceFreeEnginesReturnNilTasks pins down which engines take
// the nil-task path: the OCTOPUS family and the scan have nothing to
// maintain, so the scheduler must never see work from them.
func TestMaintenanceFreeEnginesReturnNilTasks(t *testing.T) {
	m := buildMesh(t, 3)
	engines := []query.ParallelKNNEngine{
		core.New(m),
		core.NewCon(m, 0),
		core.NewHybrid(m, 0, core.Constants{CS: 1e-9, CR: 1e-9}),
		linearscan.New(m),
	}
	m.Deform(func(pos []geom.Vec3) {
		for i := range pos {
			pos[i] = pos[i].Add(geom.V(0.01, 0, 0))
		}
	})
	d := m.TakeDirty()
	for _, eng := range engines {
		inc, ok := eng.(maintain.Incremental)
		if !ok {
			t.Fatalf("%s does not implement maintain.Incremental", eng.Name())
		}
		if task := inc.BeginMaintenance(d); task != nil {
			t.Fatalf("%s returned a non-nil maintenance task", eng.Name())
		}
	}
}

// TestOctreeRelocationStraysAndRebuildTrigger drives enough drift
// through the octree that points leave the root box (strays) and the
// quality trigger eventually forces a rebuild — and exactness holds
// throughout.
func TestOctreeRelocationStraysAndRebuildTrigger(t *testing.T) {
	m := buildMesh(t, 4)
	eng := octree.NewEngine(m, 16)
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 30; round++ {
		m.Deform(func(pos []geom.Vec3) {
			for j := range pos {
				pos[j] = pos[j].Add(geom.V(0.2*r.Float64(), 0.2*r.Float64(), 0.2*r.Float64()))
			}
		})
		drive(t, eng, m, 1)
		verify(t, eng, m, r, round)
	}
}
