package query_test

// Snapshot-consistency ("linearizability-lite") suite: every result set a
// pipeline produces must exactly equal brute force evaluated at the epoch
// the cursor pinned (or, for engines answering from an internal snapshot,
// the epoch of their last maintenance). The deformers are deterministic
// pure functions of (step, positions), so the test replays the initial
// positions forward to any epoch and compares bit-for-bit — a torn read
// (a query observing half of a deformation step) cannot match any
// replayed epoch and is detected by construction.

import (
	"testing"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/sim"
)

// epochOracle reconstructs the positions of any published epoch of a
// pipeline run from the run's deterministic history: one deformer step
// per epoch increment, plus explicitly recorded states for epochs
// created by restructuring (which replay cannot derive).
type epochOracle struct {
	initial  []geom.Vec3
	deformer sim.Deformer
	// stepOf[e] is the deformer step that produced epoch e (recorded by
	// the Deform wrapper); recorded[e] overrides replay entirely.
	stepOf   map[uint64]int
	recorded map[uint64][]geom.Vec3
}

func newEpochOracle(m *mesh.Mesh, d sim.Deformer) *epochOracle {
	return &epochOracle{
		initial:  append([]geom.Vec3(nil), m.Positions()...),
		deformer: d,
		stepOf:   make(map[uint64]int),
		recorded: map[uint64][]geom.Vec3{0: append([]geom.Vec3(nil), m.Positions()...)},
	}
}

// deform is the Pipeline.Deform hook: it applies the deformer and records
// which step produced the epoch about to be published. It runs on the
// writer goroutine; the maps are read only after Run returns.
func (o *epochOracle) deform(m *mesh.Mesh) func(step int, pos []geom.Vec3) {
	return func(step int, pos []geom.Vec3) {
		o.deformer.Step(step, pos)
		o.stepOf[m.Epoch()+1] = step
		o.record(m.Epoch()+1, pos)
	}
}

func (o *epochOracle) record(e uint64, pos []geom.Vec3) {
	o.recorded[e] = append([]geom.Vec3(nil), pos...)
}

// at returns the positions of epoch e.
func (o *epochOracle) at(t *testing.T, e uint64) []geom.Vec3 {
	t.Helper()
	pos, ok := o.recorded[e]
	if !ok {
		t.Fatalf("no recorded state for epoch %d", e)
	}
	return pos
}

// verify replays the initial positions through the deformer and checks
// that the recorded epochs match the replay — the oracle's self-test that
// epochs really advance one deterministic step at a time.
func (o *epochOracle) verify(t *testing.T, maxEpoch uint64) {
	t.Helper()
	pos := append([]geom.Vec3(nil), o.initial...)
	for e := uint64(1); e <= maxEpoch; e++ {
		step, ok := o.stepOf[e]
		if !ok {
			// Restructuring epoch (or the skipped parity slot of a +2
			// bump): replay cannot derive it — resynchronize the replay
			// base from the recorded state so later steps verify from
			// the post-restructure geometry.
			if rec, has := o.recorded[e]; has {
				pos = append(pos[:0], rec...)
			}
			continue
		}
		o.deformer.Step(step, pos)
		rec := o.recorded[e]
		if len(rec) != len(pos) {
			t.Fatalf("epoch %d: recorded %d positions, replay has %d", e, len(rec), len(pos))
		}
		for i := range pos {
			if pos[i] != rec[i] {
				t.Fatalf("epoch %d: replay diverges at vertex %d", e, i)
			}
		}
	}
}

// checkReport verifies every range and kNN result of a pipeline run
// against brute force at the trace's epoch.
func checkReport(t *testing.T, o *epochOracle, report *query.PipelineReport,
	queries []geom.AABB, probes []query.KNNQuery) {
	t.Helper()
	for i, tr := range report.RangeTraces {
		want := query.ScanPositions(o.at(t, tr.Epoch), queries[i], nil)
		got := append([]int32(nil), report.RangeResults[i]...)
		if d := query.Diff(got, want); d != "" {
			t.Fatalf("range query %d at epoch %d (staleness %d): %s",
				i, tr.Epoch, tr.Staleness(), d)
		}
	}
	for i, tr := range report.KNNTraces {
		want := query.ScanKNNPositions(o.at(t, tr.Epoch), probes[i].P, probes[i].K, nil)
		got := report.KNNResults[i]
		if len(got) != len(want) {
			t.Fatalf("probe %d at epoch %d: %d results, want %d", i, tr.Epoch, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("probe %d at epoch %d: result[%d] = %d, want %d (order-sensitive)",
					i, tr.Epoch, j, got[j], want[j])
			}
		}
	}
}

// TestSnapshotConsistencyAllEngines is the linearizability-lite check for
// every engine: while the writer publishes deformation steps, each range
// and kNN result must equal brute force at the epoch its cursor pinned.
func TestSnapshotConsistencyAllEngines(t *testing.T) {
	for _, f := range engineFactories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			m := buildBox(t, 6)
			eng := f.make(m)
			o := newEpochOracle(m, &sim.NoiseDeformer{Amplitude: 0.003, Frequency: 2, Seed: 9})
			queries, probes := testWorkload(m, 40, 20, 7)

			pl := &query.Pipeline{
				Engine:   eng,
				Mesh:     m,
				Deform:   o.deform(m),
				Workers:  4,
				MinSteps: 4,
			}
			report := pl.Run(queries, probes)
			o.verify(t, m.Epoch())
			checkReport(t, o, report, queries, probes)
		})
	}
}

// TestSnapshotConsistencyUnderRestructuring is the restructuring
// variant: mid-run, the writer splits a cell (adding a vertex, epoch +2)
// and deletes another (changing the surface set) under the pipeline's
// maintenance lock; the mesh carries both changes and the engine is told
// nothing. Results must still be exact at their pinned epochs, before and
// after the restructuring, for the engines whose index the mesh
// maintains.
func TestSnapshotConsistencyUnderRestructuring(t *testing.T) {
	restructurable := []string{"OCTOPUS", "OCTOPUS-Hybrid"}
	for _, f := range engineFactories() {
		f := f
		supported := false
		for _, name := range restructurable {
			if f.name == name {
				supported = true
			}
		}
		if !supported {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			m := buildBox(t, 5)
			eng := f.make(m)
			o := newEpochOracle(m, &sim.NoiseDeformer{Amplitude: 0.003, Frequency: 2, Seed: 11})
			queries, probes := testWorkload(m, 36, 12, 13)

			restructured := 0
			pl := &query.Pipeline{
				Engine:   eng,
				Mesh:     m,
				Deform:   o.deform(m),
				Workers:  4,
				MinSteps: 6,
				Maintain: func(step int) {
					// Restructure on two early steps: a split (new interior
					// vertex, empty delta, epoch +2) and a delete (real
					// surface delta). Runs under the maintenance write lock,
					// so no query is in flight.
					if restructured >= 2 || step%2 != 0 {
						return
					}
					restructured++
					var err error
					if restructured == 1 {
						_, _, err = m.SplitCell(liveCell(t, m))
					} else {
						_, err = m.DeleteCell(liveCell(t, m))
					}
					if err != nil {
						t.Errorf("restructure at step %d: %v", step, err)
						return
					}
					// Record the post-restructure state: replay cannot
					// derive epochs created by connectivity changes.
					o.record(m.Epoch(), m.Positions())
				},
			}
			report := pl.Run(queries, probes)
			if restructured != 2 {
				t.Fatalf("restructured %d times, want 2", restructured)
			}
			o.verify(t, m.Epoch())
			checkReport(t, o, report, queries, probes)
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// liveCell returns the index of some live cell.
func liveCell(t testing.TB, m *mesh.Mesh) int {
	for ci := range m.Cells() {
		if !m.Cells()[ci].Dead {
			return ci
		}
	}
	t.Fatal("no live cells")
	return -1
}

// TestStalenessAccounting pins down the metric's semantics on a
// hand-driven mesh: an engine answering from its last-Step snapshot
// reports staleness equal to the number of epochs published since.
func TestStalenessAccounting(t *testing.T) {
	tr := query.QueryTrace{Epoch: 3, HeadEpoch: 7}
	if s := tr.Staleness(); s != 4 {
		t.Fatalf("staleness = %d, want 4", s)
	}
	mean, max := query.StalenessStats([]query.QueryTrace{
		{Epoch: 3, HeadEpoch: 7}, {Epoch: 7, HeadEpoch: 7},
	})
	if mean != 2 || max != 4 {
		t.Fatalf("staleness stats = (%v, %d), want (2, 4)", mean, max)
	}
	meanLat, p99 := query.LatencyStats([]query.QueryTrace{
		{Latency: 2}, {Latency: 4},
	}, 0.99)
	if meanLat != 3 || p99 != 4 {
		t.Fatalf("latency stats = (%v, %v), want (3, 4)", meanLat, p99)
	}
}

// TestSnapshotEngineInterfaces asserts which side of the epoch contract
// each engine implements, so a future engine cannot silently fall out of
// the live pipeline's consistency guarantee: the linear scan answers
// through the pinned scan (ScanCursor), the five maintained baselines
// report the epoch of their internal snapshot (EpochReporter), and the
// OCTOPUS family pins the head in its own cursors.
func TestSnapshotEngineInterfaces(t *testing.T) {
	m := buildBox(t, 3)
	scanners := map[string]bool{"LinearScan": true}
	reporters := map[string]bool{
		"OCTREE": true, "KD-Tree": true, "LU-Grid": true,
		"LUR-Tree": true, "QU-Trade": true,
	}
	for _, f := range engineFactories() {
		eng := f.make(m)
		_, isScan := eng.NewCursor().(*query.ScanCursor)
		_, isRep := query.ParallelKNNEngine(eng).(query.EpochReporter)
		if isScan != scanners[f.name] {
			t.Errorf("%s: cursor is a ScanCursor = %v, want %v", f.name, isScan, scanners[f.name])
		}
		if isRep != reporters[f.name] {
			t.Errorf("%s: EpochReporter = %v, want %v", f.name, isRep, reporters[f.name])
		}
	}
	if _, ok := (&slowMaintEngine{m: m}).NewCursor().(*query.ScanCursor); !ok {
		t.Error("slowMaintEngine: cursor is not a ScanCursor")
	}
	// Self-documenting: the OCTOPUS family needs neither — its cursors pin
	// the head epoch and read the crawl through the pinned buffer directly.
	var _ query.Cursor = core.New(m).NewCursor().(*core.Cursor)
}
