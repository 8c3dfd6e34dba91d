package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/maintain"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/shard"
)

// tetLattice builds n³ disjoint tetrahedra on a unit lattice, ids in
// row-major order. Every vertex is a surface vertex and every tetrahedron
// its own component, so a range result needs a probe seed in every
// tetrahedron it touches and a kNN result, but for the one tetrahedron the
// first crawl reaches, comes from the probe alone (the fold crawl never
// offers a surface vertex): nothing the probe misses can be
// rescued by the walk or the crawl, which makes the mesh a sharp
// instrument for the block boxes. The surface index is dense (slot i is
// vertex i) and 32 consecutive tetrahedra are one block.
func tetLattice(t testing.TB, n int) *mesh.Mesh {
	t.Helper()
	b := mesh.NewBuilder(4*n*n*n, n*n*n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				o := geom.V(float64(x), float64(y), float64(z))
				b.AddTet(b.AddVertex(o), b.AddVertex(o.Add(geom.V(0.4, 0, 0))),
					b.AddVertex(o.Add(geom.V(0, 0.4, 0))), b.AddVertex(o.Add(geom.V(0, 0, 0.4))))
			}
		}
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// scramble is an in-place deformation that leaves no block near the box
// that described it: a point reflection through the mesh centre plus a
// step-dependent shift. It is rigid, so the mesh stays well-shaped, and the
// shifts cancel over six steps, so a long run stays where it started.
func scramble(step int, pos []geom.Vec3) {
	b := geom.EmptyBox()
	for _, p := range pos {
		b = b.Extend(p)
	}
	shift := []float64{0.25, -0.5, 0.75, -0.25, 0.5, -0.75}[step%6]
	c2 := b.Min.Add(b.Max).Add(geom.V(shift, 0, 0))
	for i, p := range pos {
		pos[i] = c2.Sub(p)
	}
}

// cloud builds an engine over a cell-less mesh, whose surface index holds
// every vertex (slot i is vertex i) and which has no edge: full control
// over the positions a block holds, for the geometry of the boxes.
func cloud(t testing.TB, pos []geom.Vec3) (*mesh.Mesh, *Octopus) {
	t.Helper()
	b := mesh.NewBuilder(len(pos), 0)
	for _, p := range pos {
		b.AddVertex(p)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	o := New(m)
	if o.SurfaceSize() != len(pos) || !o.idx.Dense() {
		t.Fatalf("cloud of %d indexes %d vertices (dense %v), want all, slot i vertex i", len(pos), o.SurfaceSize(), o.idx.Dense())
	}
	return m, o
}

// keyOrder maps f to an integer that orders like f, with NaN beyond ±Inf
// by its sign bit: the order the block boxes are defined in.
func keyOrder(f float64) int64 {
	b := int64(math.Float64bits(f))
	return b ^ int64(uint64(b>>63)>>1)
}

// boundsOf is the box of the definition: on each axis the least and the
// greatest of the values in keyOrder.
func boundsOf(lo, hi []geom.Vec3) geom.AABB {
	pick := func(vs []geom.Vec3, axis int, greatest bool) float64 {
		best := [3]float64{vs[0].X, vs[0].Y, vs[0].Z}[axis]
		for _, v := range vs[1:] {
			c := [3]float64{v.X, v.Y, v.Z}[axis]
			if kc, kb := keyOrder(c), keyOrder(best); greatest && kc > kb || !greatest && kc < kb {
				best = c
			}
		}
		return best
	}
	return geom.AABB{
		Min: geom.V(pick(lo, 0, false), pick(lo, 1, false), pick(lo, 2, false)),
		Max: geom.V(pick(hi, 0, true), pick(hi, 1, true), pick(hi, 2, true)),
	}
}

// checkIndex holds the mesh's surface index to its definition: the slot
// map inverts the slot order, and the boxes of the current epoch equal a
// from-scratch recomputation over the positions of that epoch, bit for
// bit, both levels, NaN bounds included — every leaf the bounds of its
// slots, every coarse box the bounds of its leaves'.
func checkIndex(t testing.TB, label string, o *Octopus) {
	t.Helper()
	e, pos := o.m.PinPositions()
	defer o.m.UnpinPositions(e)
	slots, bb := o.idx.Slots(), o.idx.Boxes(e)
	indexed := 0
	for v := range pos {
		if slot, ok := o.idx.Slot(int32(v)); ok {
			indexed++
			if int(slot) >= len(slots) || slots[slot] != int32(v) {
				t.Fatalf("%s: vertex %d maps to slot %d of %d, which does not hold it", label, v, slot, len(slots))
			}
		}
	}
	if indexed != len(slots) {
		t.Fatalf("%s: the slot map holds %d vertices, the slot order %d", label, indexed, len(slots))
	}
	var want mesh.BlockBoxes
	for lo := 0; lo < len(slots); lo += mesh.ProbeBlock {
		var ps []geom.Vec3
		for _, v := range slots[lo:min(lo+mesh.ProbeBlock, len(slots))] {
			ps = append(ps, pos[v])
		}
		want.Leaf = append(want.Leaf, boundsOf(ps, ps))
	}
	for c := 0; c*mesh.ProbeFan < len(want.Leaf); c++ {
		var los, his []geom.Vec3
		for _, l := range want.Leaf[c*mesh.ProbeFan : min((c+1)*mesh.ProbeFan, len(want.Leaf))] {
			los, his = append(los, l.Min), append(his, l.Max)
		}
		want.Coarse = append(want.Coarse, boundsOf(los, his))
	}
	same := func(a, b []geom.AABB) bool {
		return slices.EqualFunc(a, b, func(x, y geom.AABB) bool {
			return slices.Equal(boxBits(x), boxBits(y))
		})
	}
	if !same(bb.Leaf, want.Leaf) || !same(bb.Coarse, want.Coarse) {
		t.Fatalf("%s: epoch %d's boxes (%d leaves, %d coarse) differ from a recomputation (%d, %d)",
			label, e, len(bb.Leaf), len(bb.Coarse), len(want.Leaf), len(want.Coarse))
	}
}

// boxBits is a box's six bounds as bit patterns, so NaN bounds compare.
func boxBits(b geom.AABB) []uint64 {
	var out []uint64
	for _, f := range []float64{b.Min.X, b.Min.Y, b.Min.Z, b.Max.X, b.Max.Y, b.Max.Z} {
		out = append(out, math.Float64bits(f))
	}
	return out
}

// surfaceFirstBox is buildBox in the datasets' layout: surface vertices
// first, both partitions in Hilbert order.
func surfaceFirstBox(t testing.TB, n int) *mesh.Mesh {
	t.Helper()
	m := buildBox(t, n)
	m, err := m.Renumber(m.SurfaceFirstHilbertPerm(10))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// exactCursor is what the exactness checks drive: any cursor of the
// OCTOPUS family or of a router over it.
type exactCursor interface {
	query.Cursor
	query.KNNCursor
	query.KNNBoundReporter
}

// checkExact runs a seeded batch of range and kNN queries through cur and
// compares every answer, and every reported kNN ball, with brute force
// over pos.
func checkExact(t *testing.T, label string, cur exactCursor, pos []geom.Vec3, seed int64) {
	t.Helper()
	if len(pos) == 0 {
		return
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 10; i++ {
		q := geom.BoxAround(pos[r.Intn(len(pos))], 0.3+2*r.Float64())
		if d := query.Diff(cur.Query(q, nil), query.ScanPositions(pos, q, nil)); d != "" {
			t.Fatalf("%s: range %d (%v): %s", label, i, q, d)
		}
	}
	for i := 0; i < 10; i++ {
		p := pos[r.Intn(len(pos))].Add(geom.V(r.Float64()-0.5, r.Float64()-0.5, r.Float64()-0.5))
		checkKNN(t, fmt.Sprintf("%s: kNN %d", label, i), cur, pos, p, 1+r.Intn(40))
	}
}

// checkKNN compares one kNN answer slot for slot with brute force over pos,
// and the reported ball with the k-th result's squared distance.
func checkKNN(t *testing.T, label string, cur exactCursor, pos []geom.Vec3, p geom.Vec3, k int) {
	t.Helper()
	want := query.ScanKNNPositions(pos, p, k, nil)
	if got := cur.KNN(p, k, nil); !slices.Equal(got, want) {
		t.Fatalf("%s (p=%v k=%d): got %v, want %v", label, p, k, got, want)
	}
	ball := math.Inf(1)
	if len(want) == k {
		ball = pos[want[k-1]].Dist2(p)
	}
	if got, ok := cur.LastKNNBound2(); !ok || got != ball {
		t.Fatalf("%s: ball %v (ok=%v), want %v", label, got, ok, ball)
	}
}

// neverStepped fails the test if the scheduler falls back to Step: the
// scheduler path must reach the engine through BeginMaintenance alone.
type neverStepped struct {
	query.ParallelKNNEngine
	maintain.Incremental
	t *testing.T
}

func (e neverStepped) Step() { e.t.Error("scheduler called Step on an Incremental engine") }

// TestInPlaceDeformIsAnnounced is the stop-the-world contract of the block
// boxes: positions written in place, then Step — the refit of the written
// buffer — and every answer equals brute force again. It runs over every
// wrapper that stands in front of an *Octopus; each of them fails on the
// first query after the first deformation if the refit does not reach the
// mesh (boxes from before the step, seeds silently dropped). Where a
// scheduler stands in for Step the writer publishes instead, as a
// scheduler-driven writer does: the publish refits, and the scheduler
// reaches the engine through BeginMaintenance alone.
func TestInPlaceDeformIsAnnounced(t *testing.T) {
	inPlace := func(m *mesh.Mesh, step func()) func(int) {
		return func(i int) {
			scramble(i, m.Positions())
			step()
		}
	}
	scheduled := func(t *testing.T, m *mesh.Mesh, eng query.ParallelKNNEngine) func(int) {
		sched := maintain.NewScheduler([]*maintain.TargetState{maintain.NewTargetState(maintain.Target{
			Name: eng.Name(), Engine: neverStepped{eng, eng.(maintain.Incremental), t}, Mesh: m,
		})}, maintain.Options{})
		return func(i int) {
			m.Deform(func(pos []geom.Vec3) { scramble(i, pos) })
			sched.Tick()
		}
	}
	hybrid := func(m *mesh.Mesh) *Hybrid {
		h := NewHybrid(m, 0, Constants{CS: 1, CR: 4})
		// An all-surface mesh breaks even at selectivity 0; put the
		// threshold where the batch exercises both routes.
		h.breakEven = 0.01
		return h
	}
	cases := []struct {
		name  string
		build func(t *testing.T, m *mesh.Mesh) (eng query.ParallelKNNEngine, deform func(step int), done func())
	}{
		{"octopus/step", func(t *testing.T, m *mesh.Mesh) (query.ParallelKNNEngine, func(int), func()) {
			o := New(m)
			return o, inPlace(m, o.Step), func() {}
		}},
		{"hybrid/step", func(t *testing.T, m *mesh.Mesh) (query.ParallelKNNEngine, func(int), func()) {
			h := hybrid(m)
			return h, inPlace(m, h.Step), func() {
				if oct, scan := h.Routed(); oct == 0 || scan == 0 {
					t.Errorf("hybrid routed %d to OCTOPUS and %d to the scan, want both routes exercised", oct, scan)
				}
			}
		}},
		{"sharded-router/step", func(t *testing.T, m *mesh.Mesh) (query.ParallelKNNEngine, func(int), func()) {
			sm, err := shard.NewMesh(m, 4, shard.Options{})
			if err != nil {
				t.Fatal(err)
			}
			r := shard.NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return New(sub) })
			return r, inPlace(m, r.Step), func() {}
		}},
		{"octopus/scheduler", func(t *testing.T, m *mesh.Mesh) (query.ParallelKNNEngine, func(int), func()) {
			o := New(m)
			return o, scheduled(t, m, o), func() {}
		}},
		{"hybrid/scheduler", func(t *testing.T, m *mesh.Mesh) (query.ParallelKNNEngine, func(int), func()) {
			h := hybrid(m)
			return h, scheduled(t, m, h), func() {}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tetLattice(t, 8)
			eng, deform, done := tc.build(t, m)
			cur := eng.NewCursor().(exactCursor)
			checkExact(t, "pristine", cur, m.Positions(), 1)
			for step := 0; step < 3; step++ {
				deform(step)
				checkExact(t, fmt.Sprintf("step %d", step), cur, m.Positions(), int64(10+step))
			}
			done()
		})
	}
}

// TestProbeSummaryInvalidation walks one engine through every writer of
// a position buffer or of the slot order — Deform, DeformOverwrite,
// SetPosition+Step, SplitCell and DeleteCell — and holds the slot map and
// the boxes of the current epoch to their definition after each
// (checkIndex); answers equal brute force throughout.
func TestProbeSummaryInvalidation(t *testing.T) {
	t.Run("SetPosition+Step", func(t *testing.T) {
		m := tetLattice(t, 8)
		o := New(m)
		cur := o.NewCursor().(*Cursor)
		checkIndex(t, "pristine", o)
		checkExact(t, "pristine", cur, m.Positions(), 1)
		for v := int32(0); v < int32(m.NumVertices()); v += 3 {
			m.SetPosition(v, m.Position(v).Add(geom.V(11, -7, 5)))
		}
		o.Step()
		checkIndex(t, "moved", o)
		checkExact(t, "moved", cur, m.Positions(), 2)
	})

	// A published step leaves the scheduler nothing to do: the publish
	// refit the boxes of the buffer it published.
	t.Run("BeginMaintenance", func(t *testing.T) {
		m := tetLattice(t, 8)
		o := New(m)
		cur := o.NewCursor().(*Cursor)
		for step := 0; step < 3; step++ {
			m.Deform(func(pos []geom.Vec3) { scramble(step, pos) })
			if task := o.BeginMaintenance(m.TakeDirty()); task != nil {
				t.Fatalf("BeginMaintenance returned task %v, want nil", task)
			}
			checkIndex(t, fmt.Sprintf("deform %d", step), o)
			checkExact(t, fmt.Sprintf("deform %d", step), cur, m.Positions(), int64(step))
		}
	})

	t.Run("DeformOverwrite", func(t *testing.T) {
		m := tetLattice(t, 8)
		o := New(m)
		cur := o.NewCursor().(*Cursor)
		next := slices.Clone(m.Positions())
		for step := 0; step < 3; step++ {
			scramble(step, next)
			m.DeformOverwrite(func(pos []geom.Vec3) { copy(pos, next) })
			checkIndex(t, fmt.Sprintf("overwrite %d", step), o)
			checkExact(t, fmt.Sprintf("overwrite %d", step), cur, m.Positions(), int64(step))
		}
	})

	// Deleting every cell at three corners of the box isolates the corner
	// vertices — swap-removed, the last slots moving into their place —
	// and exposes their neighbours, appended: the slot order leaves the
	// dense, sorted layout. A split then grows the mesh under it. No
	// crawl reaches an isolated vertex (DESIGN.md §4), so each is then
	// moved out of every query box's reach: in place, with Step.
	t.Run("ApplySurfaceDelta", func(t *testing.T) {
		m := surfaceFirstBox(t, 8)
		o := New(m)
		cur := o.NewCursor().(*Cursor)
		var isolated []int32
		for _, corner := range []geom.Vec3{geom.V(0, 0, 0), geom.V(1, 1, 1), geom.V(1, 0, 0)} {
			v := query.BruteForceKNN(m, corner, 1)[0]
			for ci := range m.Cells() {
				if c := &m.Cells()[ci]; c.Dead || !slices.Contains(c.Verts[:c.VertexCount()], v) {
					continue
				}
				delta, err := m.DeleteCell(ci)
				if err != nil {
					t.Fatal(err)
				}
				o.ApplySurfaceDelta(delta)
				checkIndex(t, fmt.Sprintf("delete %d", ci), o)
			}
			isolated = append(isolated, v)
		}
		if slots := o.idx.Slots(); o.idx.Dense() || slices.IsSorted(slots) {
			t.Fatalf("deletes left the surface dense=%v sorted=%v", o.idx.Dense(), slices.IsSorted(slots))
		}
		_, delta, err := m.SplitCell(len(m.Cells()) / 2)
		if err != nil {
			t.Fatal(err)
		}
		o.ApplySurfaceDelta(delta)
		checkIndex(t, "split", o)
		for i, v := range isolated {
			m.SetPosition(v, geom.V(50+10*float64(i), 50, 50))
		}
		o.Step()
		checkIndex(t, "isolated moved away", o)
		checkExact(t, "restructured", cur, m.Positions(), 2)
		scramble(0, m.Positions())
		o.Step()
		checkIndex(t, "moved in place", o)
		checkExact(t, "moved in place", cur, m.Positions(), 3)
		m.Deform(func(pos []geom.Vec3) { scramble(1, pos) })
		checkIndex(t, "published", o)
		checkExact(t, "published", cur, m.Positions(), 4)
	})

	// Restructuring advances the epoch by two on the same buffer; Deform
	// switches buffers. The first split lands before the mesh has a
	// second buffer (epochs 0 -> 2 -> 3).
	t.Run("SplitCell+Deform/snapshots", func(t *testing.T) {
		m := surfaceFirstBox(t, 8)
		o := New(m)
		cur := o.NewCursor().(*Cursor)
		checkExact(t, "pristine", cur, m.Positions(), 1)
		for step := 0; step < 4; step++ {
			before := m.Epoch()
			_, delta, err := m.SplitCell(step)
			if err != nil {
				t.Fatal(err)
			}
			o.ApplySurfaceDelta(delta)
			if m.Epoch() != before+2 {
				t.Fatalf("SplitCell moved the epoch %d -> %d, want +2", before, m.Epoch())
			}
			checkIndex(t, fmt.Sprintf("split %d", step), o)
			checkExact(t, fmt.Sprintf("split %d", step), cur, m.Positions(), int64(10+step))
			m.Deform(func(pos []geom.Vec3) { scramble(step, pos) })
			checkIndex(t, fmt.Sprintf("deform %d", step), o)
			checkExact(t, fmt.Sprintf("deform %d", step), cur, m.Positions(), int64(20+step))
		}
	})
}

// TestBlockProbeUnderConcurrentDeform is the published half of the validity
// rule, under the race detector: four cursors query while a writer
// publishes 200 deformations that each leave every block far from its
// previous box. Every answer must equal brute force over the positions of
// the epoch the cursor reports — a box array read at the wrong epoch, or
// rebuilt under a reader, shows up as a wrong answer or a race.
func TestBlockProbeUnderConcurrentDeform(t *testing.T) {
	const publishes, readers = 200, 4
	m := tetLattice(t, 8)
	o := New(m)

	// history[e] holds the positions of epoch e. The writer fills slot e
	// inside the Deform that publishes e, so a reader that pinned e reads
	// it after the publishing store.
	history := make([][]geom.Vec3, publishes+1)
	history[0] = slices.Clone(m.Positions())
	var answered atomic.Int64
	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := o.NewCursor().(*Cursor)
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; !done.Load(); i++ {
				c := geom.V(10*r.Float64()-1, 10*r.Float64()-1, 10*r.Float64()-1)
				if i%2 == 0 {
					q := geom.BoxAround(c, 0.5+2*r.Float64())
					got := cur.Query(q, nil)
					if d := query.Diff(got, query.ScanPositions(history[cur.LastEpoch()], q, nil)); d != "" {
						t.Errorf("reader %d: range at epoch %d: %s", w, cur.LastEpoch(), d)
						return
					}
				} else {
					k := 1 + r.Intn(32)
					got := cur.KNN(c, k, nil)
					if want := query.ScanKNNPositions(history[cur.LastEpoch()], c, k, nil); !slices.Equal(got, want) {
						t.Errorf("reader %d: kNN at epoch %d: got %v, want %v", w, cur.LastEpoch(), got, want)
						return
					}
				}
				answered.Add(1)
				runtime.Gosched() // five busy goroutines on few cores: hand the writer its turn
			}
		}(w)
	}
	for e := 1; e <= publishes; e++ {
		m.Deform(func(pos []geom.Vec3) {
			scramble(e, pos)
			history[e] = slices.Clone(pos)
		})
		// Let a few answers land on every epoch, so publishes and queries
		// genuinely interleave.
		for target := answered.Load() + 2; answered.Load() < target && !t.Failed(); {
			runtime.Gosched()
		}
	}
	done.Store(true)
	wg.Wait()
	if got := m.Epoch(); got != publishes {
		t.Fatalf("published %d epochs, want %d", got, publishes)
	}
}

// TestBlockGeometry covers the shapes the two levels can take: no leaf, a
// lone vertex, one slot short of a leaf, exactly one, one over, one slot
// short of four leaves, exactly four, one over, exactly one coarse box,
// one slot into a second, and a long surface (1 144 slots) whose last
// coarse box is ragged: fewer than mesh.ProbeFan leaves, the last of them
// partial. Every leaf box is the tight box of its slots and every coarse
// box the union of its leaves'.
func TestBlockGeometry(t *testing.T) {
	full := mesh.ProbeFan * mesh.ProbeBlock
	for _, n := range []int{0, 1, mesh.ProbeBlock - 1, mesh.ProbeBlock, mesh.ProbeBlock + 1, 4*mesh.ProbeBlock - 1, 4 * mesh.ProbeBlock, 4*mesh.ProbeBlock + 1, full, full + 1, 1144} {
		t.Run(fmt.Sprintf("surface-%d", n), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(n)))
			pos := make([]geom.Vec3, n)
			for i := range pos {
				// A drifting walk, so consecutive slots are near each other
				// like a Hilbert-ordered surface.
				pos[i] = geom.V(float64(i)/40+r.Float64(), 3*r.Float64(), 3*r.Float64())
			}
			m, o := cloud(t, pos)
			cur := o.NewCursor().(*Cursor)
			checkExact(t, "pristine", cur, m.Positions(), 1)
			leaves := (n + mesh.ProbeBlock - 1) / mesh.ProbeBlock
			coarse := (leaves + mesh.ProbeFan - 1) / mesh.ProbeFan
			bb := o.idx.Boxes(0)
			if len(bb.Leaf) != leaves || len(bb.Coarse) != coarse {
				t.Fatalf("%d leaves and %d coarse boxes over %d slots, want %d and %d", len(bb.Leaf), len(bb.Coarse), n, leaves, coarse)
			}
			for b := range bb.Leaf {
				lo, hi := o.idx.LeafSlots(b)
				want := geom.EmptyBox()
				for _, p := range pos[lo:hi] {
					want = want.Extend(p)
				}
				if bb.Leaf[b] != want {
					t.Fatalf("leaf %d = %v, want %v", b, bb.Leaf[b], want)
				}
			}
			for c := range bb.Coarse {
				lo, hi := bb.Leaves(c)
				want := bb.Leaf[lo]
				for _, l := range bb.Leaf[lo:hi] {
					want = want.Union(l)
				}
				if bb.Coarse[c] != want {
					t.Fatalf("coarse %d (leaves %d..%d) = %v, want %v", c, lo, hi-1, bb.Coarse[c], want)
				}
			}
			if n > 0 {
				out := cur.Query(geom.BoxAround(geom.V(-50, -50, -50), 1), nil)
				if len(out) != 0 {
					t.Fatalf("disjoint box returned %v", out)
				}
			}
			scramble(0, m.Positions())
			o.Step()
			checkExact(t, "moved", cur, m.Positions(), 2)
		})
	}
}

// TestMemoryFootprintCountsBuiltBoxes: the footprint counts the box arrays
// that exist. A mesh written only in place (paper mode) holds the boxes of
// its one buffer; the first Deform brings the second buffer and its boxes.
func TestMemoryFootprintCountsBuiltBoxes(t *testing.T) {
	m := surfaceFirstBox(t, 10)
	o := New(m)
	if !o.idx.Dense() {
		t.Fatal("surface-first layout not dense; test geometry broken")
	}
	leaves := (o.SurfaceSize() + mesh.ProbeBlock - 1) / mesh.ProbeBlock
	parity := int64(leaves+(leaves+mesh.ProbeFan-1)/mesh.ProbeFan) * 48
	index := int64(cap(o.idx.Slots())) * 4
	rest := o.MemoryFootprint() - o.idx.MemoryBytes()
	for step := 0; step < 2; step++ {
		scramble(step, m.Positions())
		o.Step()
		if got := o.idx.MemoryBytes(); got != index+parity {
			t.Fatalf("paper mode, step %d: index footprint %d, want %d (slots) + %d (one parity)", step, got, index, parity)
		}
	}
	m.Deform(func(pos []geom.Vec3) { scramble(2, pos) })
	if got := o.MemoryFootprint(); got != rest+index+2*parity {
		t.Fatalf("after the first Deform: footprint %d, want %d + %d (slots) + %d (both parities)", got, rest, index, 2*parity)
	}
}

// TestBlockBoxFaceContact: a query that meets a block box only on a face
// still contains the vertices that define the face (bounds are inclusive
// on both sides), so the block must be scanned. Each case also reaches into
// the other block, so the probe does find seeds and nothing falls to the
// walk, which would otherwise cover for a skipped block.
func TestBlockBoxFaceContact(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	unit := make([]geom.Vec3, mesh.ProbeBlock) // the 8 corners of the unit cube, then filler inside it
	for i := range unit {
		if i < 8 {
			unit[i] = geom.V(float64(i&1), float64(i>>1&1), float64(i>>2&1))
		} else {
			unit[i] = geom.V(r.Float64(), r.Float64(), r.Float64())
		}
	}
	axes := []geom.Vec3{geom.V(1, 0, 0), geom.V(0, 1, 0), geom.V(0, 0, 1)}
	for a, axis := range axes {
		// Block 0 is the unit cube, block 1 the same cube 5 further along
		// the axis.
		pos := slices.Clone(unit)
		for _, p := range unit {
			pos = append(pos, p.Add(axis.Scale(5)))
		}
		m, o := cloud(t, pos)
		around := geom.Box(geom.V(-1, -1, -1), geom.V(2, 2, 2))
		slab := func(lo, hi float64) geom.AABB {
			q := around
			q.Min = q.Min.Add(axis.Scale(lo + 1))
			q.Max = q.Max.Add(axis.Scale(hi - 2))
			return q
		}
		for _, tc := range []struct {
			name   string
			q      geom.AABB
			onFace int32 // a vertex the query holds only by face contact
		}{
			{"max face of block 0", slab(1, 5.5), 7},
			{"min face of block 1", slab(0.5, 5), mesh.ProbeBlock},
		} {
			got := o.Query(tc.q, nil)
			if !slices.Contains(got, tc.onFace) {
				t.Errorf("axis %d, %s: vertex %d at %v is not in the result of %v", a, tc.name, tc.onFace, pos[tc.onFace], tc.q)
			}
			if d := query.Diff(got, query.BruteForce(m, tc.q)); d != "" {
				t.Errorf("axis %d, %s: %s", a, tc.name, d)
			}
		}
	}
}

// TestBlockBoxNonFinitePositions: a vertex with a NaN coordinate is inside
// no box, so it is never returned — and it must not take its block-mates
// with it, wherever in the leaf sits, nor the other leaves of its coarse
// box. Infinite coordinates are ordinary (if distant) positions. The
// surface spans two coarse boxes, the second ragged; it holds a leaf whose
// every x is NaN (its coarse box then has a NaN bound while the leaf's
// own box is NaN on both sides) and a leaf whose every x is +Inf.
func TestBlockBoxNonFinitePositions(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	nanLeaf, infLeaf := mesh.ProbeFan+1, mesh.ProbeFan+2
	pos := make([]geom.Vec3, (mesh.ProbeFan+3)*mesh.ProbeBlock+9)
	for i := range pos {
		pos[i] = geom.V(float64(i)/10, 0.5, 0.5)
	}
	bad := map[int32]geom.Vec3{
		0:                          geom.V(nan, 0.5, 0.5), // first slot of a leaf: would seed a running min
		77:                         geom.V(7.7, nan, nan),
		133:                        geom.V(inf, 0.5, 0.5),
		134:                        geom.V(-inf, 0.5, 0.5),
		356:                        geom.V(nan, nan, nan),
		383:                        geom.V(38.3, 0.5, inf),
		int32(mesh.ProbeBlock - 1): geom.V(nan, 0.5, 0.5), // last slot of a leaf
		int32(len(pos) - 1):        geom.V(nan, 0.5, 0.5), // last slot of the surface
	}
	for v, p := range bad {
		pos[v] = p
	}
	for i := nanLeaf * mesh.ProbeBlock; i < (nanLeaf+1)*mesh.ProbeBlock; i++ {
		pos[i].X = nan
	}
	for i := infLeaf * mesh.ProbeBlock; i < (infLeaf+1)*mesh.ProbeBlock; i++ {
		pos[i].X = inf
	}
	m, o := cloud(t, pos)
	cur := o.NewCursor().(*Cursor)
	everything := geom.Box(geom.V(-inf, -inf, -inf), geom.V(inf, inf, inf))
	for _, q := range []geom.AABB{
		geom.Box(geom.V(-1, 0, 0), geom.V(100, 1, 1)), // every finite vertex
		geom.Box(geom.V(7, 0, 0), geom.V(8, 1, 1)),    // around the half-NaN vertex
		geom.Box(geom.V(12, 0, 0), geom.V(14, 1, 1)),  // around the infinite ones
		geom.Box(geom.V(50, 0, 0), geom.V(60, 1, 1)),  // the second coarse box, beside the NaN leaf
		geom.Box(geom.V(60, 0, 0), geom.V(inf, 1, 1)), // the +Inf leaf and the ragged tail
		everything,
	} {
		got := cur.Query(q, nil)
		if d := query.Diff(got, query.BruteForce(m, q)); d != "" {
			t.Fatalf("%v: %s", q, d)
		}
		for _, v := range got {
			if p := pos[v]; p.X != p.X || p.Y != p.Y || p.Z != p.Z {
				t.Fatalf("%v returned vertex %d at %v", q, v, p)
			}
		}
	}
	if bb := o.idx.Boxes(cur.LastEpoch()); len(bb.Coarse) != 2 || !math.IsNaN(bb.Coarse[1].Max.X) || !math.IsNaN(bb.Leaf[nanLeaf].Min.X) {
		t.Fatalf("coarse boxes %v, NaN leaf %v: want two, the second with a NaN x bound over a leaf NaN on both sides", bb.Coarse, bb.Leaf[nanLeaf])
	}
	checkIndex(t, "non-finite", o)
	finite := 0
	for _, p := range pos {
		if p.X == p.X && p.Y == p.Y && p.Z == p.Z {
			finite++
		}
	}
	if got := len(cur.Query(everything, nil)); got != finite || finite != len(pos)-5-mesh.ProbeBlock {
		t.Fatalf("the unbounded box returned %d vertices, want the %d without a NaN coordinate", got, finite)
	}
	// kNN next to each NaN vertex finds its finite block-mates.
	for _, p := range []geom.Vec3{geom.V(0, 0.5, 0.5), geom.V(7.7, 0.5, 0.5), geom.V(35.6, 0.5, 0.5),
		geom.V(float64(nanLeaf*mesh.ProbeBlock+mesh.ProbeBlock/2)/10, 0.5, 0.5), pos[len(pos)-2]} {
		got := cur.KNN(p, 6, nil)
		var want []int32
		var kb query.KBest
		kb.Reset(6)
		for v, q := range pos {
			if d := q.Dist2(p); d == d {
				kb.Offer(d, int32(v))
			}
		}
		want = kb.AppendSorted(want)
		if !slices.Equal(got, want) {
			t.Fatalf("kNN at %v: got %v, want %v", p, got, want)
		}
	}
}

// TestKNNBlockSkipRule pins the skip rule of both levels on a hand-built
// surface of three coarse boxes. With p at the origin and k = 2, the start
// search pops coarse box 1 (at distance 0), pushes all 16 of its leaves
// (no vertex found yet: every leaf is within +Inf) and scans its first
// leaf, whose box is nearest: vertex near-1 at squared distance 1, near :=
// mesh.ProbeFan*mesh.ProbeBlock + 1 at 4. Coarse box 0 lies at 2.25, beyond that
// start, so the search stops, the scanned leaf set aside. The crawl (a
// cloud has no edges) offers near-1 alone, and the heap is not full. The
// probe pushes the start leaf back under +Inf and re-scans it first: it
// skips the marked near-1 and offers near, which fills the heap at bound
// 4. Coarse box 0 lies within it and is expanded: all 16 of its leaves
// are tested, and only leaf 0, whose box lies at squared distance exactly
// 4, is pushed. It holds vertex 7 at exactly that distance: the smaller
// id of the tie, so the answer is [near-1 7], and the leaf must be pushed
// and scanned although nothing in it beats the bound. The other leaves
// and the whole of coarse box 2 (ragged: one leaf) lie strictly beyond
// and must not be scanned — coarse box 2 not even descended into.
func TestKNNBlockSkipRule(t *testing.T) {
	near := int32(mesh.ProbeFan*mesh.ProbeBlock + 1)
	pos := make([]geom.Vec3, (2*mesh.ProbeFan+1)*mesh.ProbeBlock)
	for i := range pos {
		j := float64(i % mesh.ProbeBlock)
		switch b := i / mesh.ProbeBlock; {
		case b == 0:
			pos[i] = geom.V(-20-float64(i), 0, 0)
		case b < mesh.ProbeFan && b%2 == 0: // squared distance >= 1.5² + 3²
			pos[i] = geom.V(-1.5, 3+j/mesh.ProbeBlock, 0)
		case b < mesh.ProbeFan: // >= 3² + 3²; with the leaves above, a coarse box 1.5 away
			pos[i] = geom.V(-3-j/mesh.ProbeBlock, -3-j/mesh.ProbeBlock, 0)
		case b == mesh.ProbeFan:
			pos[i] = geom.V(10+float64(i), 0, 0)
		case b < 2*mesh.ProbeFan:
			pos[i] = geom.V(0, 100+float64(i), 0)
		default:
			pos[i] = geom.V(0, 0, 100+float64(i))
		}
	}
	pos[7] = geom.V(-2, 0, 0)
	pos[near-1] = geom.V(1, 0, 0)
	pos[near] = geom.V(2, 0, 0)
	m, o := cloud(t, pos)
	cur := o.NewCursor().(*Cursor)
	p := geom.V(0, 0, 0)

	got := cur.KNN(p, 2, nil)
	if want := []int32{near - 1, 7}; !slices.Equal(got, want) || !slices.Equal(got, query.BruteForceKNN(m, p, 2)) {
		t.Fatalf("kNN = %v, want %v (brute force %v)", got, want, query.BruteForceKNN(m, p, 2))
	}
	if ball, ok := cur.LastKNNBound2(); !ok || ball != 4 {
		t.Fatalf("ball = %v (ok=%v), want 4", ball, ok)
	}
	if bb := o.idx.Boxes(cur.LastEpoch()); len(bb.Coarse) != 3 || gap2(&bb.Coarse[0], &geom.AABB{Min: p, Max: p}) != 2.25 {
		t.Fatalf("coarse boxes %v; test geometry broken", bb.Coarse)
	}
	// Box distances: three coarse boxes and the leaves of coarse box 1 in
	// the start search, the leaves of coarse box 0 in the probe.
	// Positions: the start leaf twice (search, then probe) and leaf 0.
	st := cur.Stats()
	if boxes, positions := st.ProbeBoxes, st.ProbeChecked-st.ProbeBoxes; boxes != 3+2*mesh.ProbeFan || positions != 3*mesh.ProbeBlock {
		t.Fatalf("probe tested %d boxes and %d positions, want %d and %d", boxes, positions, 3+2*mesh.ProbeFan, 3*mesh.ProbeBlock)
	}

	// No block is skipped while the heap is not full: k beyond the surface
	// returns every vertex, nearest first.
	k := len(pos) + 9
	if got, want := cur.KNN(p, k, nil), query.BruteForceKNN(m, p, k); !slices.Equal(got, want) {
		t.Fatalf("k > surface: %d results, want %d", len(got), len(want))
	}
	if ball, ok := cur.LastKNNBound2(); !ok || !math.IsInf(ball, 1) {
		t.Fatalf("k > surface: ball = %v (ok=%v), want +Inf", ball, ok)
	}
}

// linearProbe is the probe the block boxes replace, kept as the reference:
// one pass over the surface in slot order. It collects the range seeds of
// q and the kNN start: the vertex nearest p, the lowest slot among
// equals, a NaN distance never taken (-1 when none is).
func linearProbe(o *Octopus, pos []geom.Vec3, q geom.AABB, p geom.Vec3) (seeds []int32, start int32) {
	start, best := -1, math.Inf(1)
	for _, v := range o.idx.Slots() {
		if q.Contains(pos[v]) {
			seeds = append(seeds, v)
		}
		if d := pos[v].Dist2(p); d < best || d == best && start < 0 {
			start, best = v, d
		}
	}
	return seeds, start
}

// linearFolds is the kNN probe's reference, one pass in slot order after
// a crawl that left the heap kb and marked the vertices in marked: it
// offers kb every unmarked surface vertex that keep admits (nil: every
// vertex) within min(ceiling2, kb's bound), and returns the folds — the
// first min(k, maxKNNStarts) unmarked vertices by distance, slot order
// among equals, within the final bound.
func linearFolds(o *Octopus, pos []geom.Vec3, p geom.Vec3, kb *query.KBest, keep, marked []bool, ceiling2 float64) []int32 {
	bound := min(ceiling2, kb.Bound())
	type cand struct {
		d float64
		v int32
	}
	var cands []cand
	for _, v := range o.idx.Slots() {
		if d := pos[v].Dist2(p); !marked[v] && d <= bound {
			if keep == nil || keep[v] {
				kb.Offer(d, v)
			}
			cands = append(cands, cand{d, v})
		}
	}
	slices.SortStableFunc(cands, func(a, b cand) int { return cmp.Compare(a.d, b.d) })
	var folds []int32
	for _, c := range cands {
		if len(folds) < min(kb.K(), maxKNNStarts) && c.d <= min(ceiling2, kb.Bound()) {
			folds = append(folds, c.v)
		}
	}
	return folds
}

// tieCloud is a cloud engine over n positions on an integer grid of side
// spread, so distance ties abound. With drift the grid slides along x
// with the slot, like a Hilbert-ordered surface; without it the layout
// has no locality and every box is loose. One position in every
// nonFinite (0: none) gets a NaN, +Inf or -Inf coordinate, and leaf
// n/mesh.ProbeBlock/2 has a NaN x throughout.
func tieCloud(t testing.TB, r *rand.Rand, n, spread int, drift bool, nonFinite int) (*mesh.Mesh, *Octopus) {
	nan, inf := math.NaN(), math.Inf(1)
	pos := make([]geom.Vec3, n)
	for i := range pos {
		pos[i] = geom.V(float64(r.Intn(spread)), float64(r.Intn(spread)), float64(r.Intn(spread)))
		if drift {
			pos[i].X += float64(i / 8)
		}
		if nonFinite > 0 && r.Intn(nonFinite) == 0 {
			switch r.Intn(3) {
			case 0:
				pos[i].X = nan
			case 1:
				pos[i].Y = inf
			default:
				pos[i].Z = -inf
			}
		}
	}
	if leaf := n / mesh.ProbeBlock / 2; nonFinite > 0 && n >= 2*mesh.ProbeBlock {
		for i := leaf * mesh.ProbeBlock; i < (leaf+1)*mesh.ProbeBlock; i++ {
			pos[i].X = nan
		}
	}
	return cloud(t, pos)
}

// matchLinearPass runs the block probe of o and the linear passes on the
// same range box q and kNN point p, under a random restriction (no mask,
// or a coin per vertex; no ceiling, a ceiling of 0, or one exactly at a
// vertex's non-NaN distance), and fails unless the range seeds (order
// included), the kNN start, the candidates the probe leaves in the heap
// after a stand-in crawl and the folds are equal — and the whole kNN
// query equals brute force over what the restriction admits.
func matchLinearPass(t testing.TB, label string, o *Octopus, cur *Cursor, r *rand.Rand, q geom.AABB, p geom.Vec3, k int) {
	t.Helper()
	pos := cur.beginQuery(o.m)
	var keep []bool
	if r.Intn(2) == 0 {
		keep = make([]bool, len(pos))
		for v := range keep {
			keep[v] = r.Intn(3) != 0
		}
	}
	ceiling2 := math.Inf(1)
	switch r.Intn(4) {
	case 1:
		ceiling2 = 0
	case 2:
		if d := pos[r.Intn(len(pos))].Dist2(p); d == d { // a ceiling is never NaN
			ceiling2 = d
		}
	}
	label = fmt.Sprintf("%s (k=%d, ceiling2=%v, masked=%v)", label, k, ceiling2, keep != nil)
	seeds, start := linearProbe(o, pos, q, p)

	cur.seeds = cur.seeds[:0]
	o.probeRange(cur, q, pos)
	if !slices.Equal(cur.seeds, seeds) {
		t.Fatalf("%s: seeds %v, linear pass %v", label, cur.seeds, seeds)
	}

	cur.kbest.Reset(k)
	cur.bumpMarks()
	bb := o.idx.Boxes(cur.epoch)
	if got, _, _ := o.knnStartSearch(cur, bb, p, pos); got != start {
		t.Fatalf("%s: kNN start %d, linear pass %d", label, got, start)
	}
	// A stand-in for the crawl: mark the start and a random third of the
	// surface, offering each admitted vertex within the ceiling, as the
	// crawl offers what it pops.
	var ref query.KBest
	ref.Reset(k)
	marked := make([]bool, len(pos))
	for _, v := range o.idx.Slots() {
		if v == start || r.Intn(3) == 0 {
			marked[v], cur.marks[v] = true, cur.markEpoch
			if d := pos[v].Dist2(p); (keep == nil || keep[v]) && d <= ceiling2 {
				cur.kbest.Offer(d, v)
				ref.Offer(d, v)
			}
		}
	}
	kp := knnProbe{want: min(k, maxKNNStarts), bound: min(ceiling2, cur.kbest.Bound()), keep: keep, marks: cur.marks, epoch: cur.markEpoch}
	o.probeKNN(cur, bb, &kp, p, pos)
	wantFolds := linearFolds(o, pos, p, &ref, keep, marked, ceiling2)
	var folds []int32
	for _, c := range kp.folds() {
		folds = append(folds, c.v)
	}
	if !slices.Equal(folds, wantFolds) {
		t.Fatalf("%s: folds %v, linear pass %v", label, folds, wantFolds)
	}
	if got, want := cur.kbest.AppendSorted(nil), ref.AppendSorted(nil); !slices.Equal(got, want) {
		t.Fatalf("%s: candidates %v, linear pass %v", label, got, want)
	}
	cur.endQuery(o.m)

	cur.RestrictKNN(keep, ceiling2)
	defer cur.RestrictKNN(nil, math.Inf(1))
	want, wantBall := restrictedBruteForce(o.m, p, k, keep, ceiling2)
	if got := cur.KNN(p, k, nil); !slices.Equal(got, want) {
		t.Fatalf("%s: kNN %v, brute force %v", label, got, want)
	}
	if ball, ok := cur.LastKNNBound2(); !ok || ball != wantBall {
		t.Fatalf("%s: ball %v, brute force %v", label, ball, wantBall)
	}
}

// TestBlockProbeMatchesLinearPass holds the block probe to the linear pass
// it replaces, element for element: the same range seeds in the same
// order (so the same crawl and the same output order), the same kNN
// candidates and the same crawl starts — on the dense layout, on the
// id-array layout, on a regular grid where distance ties abound, and on a
// cloud with non-finite coordinates. Every surface ends in a ragged coarse
// box, and the cloud's coarse boxes hold ±Inf and NaN leaves.
func TestBlockProbeMatchesLinearPass(t *testing.T) {
	type engine struct {
		m *mesh.Mesh
		o *Octopus
	}
	withEngine := func(m *mesh.Mesh) engine { return engine{m, New(m)} }
	for _, tc := range []struct {
		name  string
		build func() engine
	}{
		{"dense", func() engine { return withEngine(surfaceFirstBox(t, 10)) }},
		{"id-array", func() engine { return withEngine(buildBox(t, 10)) }},
		{"lattice", func() engine { return withEngine(tetLattice(t, 6)) }},
		{"non-finite", func() engine {
			m, o := tieCloud(t, rand.New(rand.NewSource(5)), 2*mesh.ProbeFan*mesh.ProbeBlock+5*mesh.ProbeBlock+3, 3, true, 40)
			return engine{m, o}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.build()
			m, o := e.m, e.o
			if want := tc.name != "id-array"; o.idx.Dense() != want {
				t.Fatalf("denseSurface = %v, want %v", o.idx.Dense(), want)
			}
			if leaves := (o.SurfaceSize() + mesh.ProbeBlock - 1) / mesh.ProbeBlock; leaves <= mesh.ProbeFan || leaves%mesh.ProbeFan == 0 {
				t.Fatalf("%d leaves: want more than one coarse box, the last ragged", leaves)
			}
			cur := o.NewCursor().(*Cursor)
			r := rand.New(rand.NewSource(13))
			bounds := geom.EmptyBox()
			for _, p := range m.Positions() {
				if finite(p.X, p.Y, p.Z) {
					bounds = bounds.Extend(p)
				}
			}
			for i := 0; i < 60; i++ {
				c := m.Position(int32(r.Intn(m.NumVertices())))
				for !finite(c.X, c.Y, c.Z) {
					c = m.Position(int32(r.Intn(m.NumVertices())))
				}
				q := geom.BoxAround(c, 0.02+r.Float64()*0.3*bounds.Size().X)
				k := 1 + r.Intn(24)
				if i%3 == 0 {
					c = c.Add(geom.V(r.Float64(), r.Float64(), r.Float64()).Scale(0.1))
				}
				matchLinearPass(t, fmt.Sprintf("query %d", i), o, cur, r, q, c, k)
			}
		})
	}
}

// TestBlockProbeSteadyStateAllocs pins the default engine's allocation
// behaviour: after the first query of an epoch neither a range query nor a
// kNN query allocates — whatever the crawl's length (the box query expands
// well past a thousand vertices), whatever k, and whether the range probe
// finds a seed, walks to one, or walks, stalls, retries and scans — and
// after the first rebuild a rebuild does not either — the box arrays are
// reused. A kNN restricted to a mask under a ceiling (a shard leg's) does
// not allocate either.
func TestBlockProbeSteadyStateAllocs(t *testing.T) {
	m := surfaceFirstBox(t, 14)
	o := New(m)
	q := geom.BoxAround(geom.V(0.5, 0.5, 0.5), 0.4)
	interior := geom.BoxAround(geom.V(0.5, 0.5, 0.5), 0.04) // one interior vertex
	disjoint := geom.BoxAround(geom.V(2, 2, 2), 0.1)
	p := geom.V(0.3, 0.6, 0.2)
	out := make([]int32, 0, m.NumVertices())
	// A shard leg's cursor: every other vertex kept, the ceiling at the
	// unrestricted 40th-best distance.
	restricted := o.NewCursor().(*Cursor)
	keep := make([]bool, m.NumVertices())
	for v := range keep {
		keep[v] = v%2 == 0
	}
	nn := o.KNN(p, 40, nil)
	restricted.RestrictKNN(keep, m.Position(nn[len(nn)-1]).Dist2(p))
	for i := 0; i < 4; i++ { // warm the cursor's buffers and every path
		out = o.Query(q, out[:0])
		out = o.Query(interior, out[:0])
		out = o.Query(disjoint, out[:0])
		out = o.KNN(p, 300, out[:0])
		out = o.KNN(p, 16, out[:0])
		out = restricted.KNN(p, 32, out[:0])
	}
	if len(out) == 0 || len(out) == 32 {
		t.Fatalf("restricted kNN found %d of 32; test geometry broken", len(out))
	}
	if len(o.KNN(p, 16, out[:0])) != 16 || len(o.Query(q, out[:0])) <= 1024 || len(o.Query(interior, out[:0])) != 1 {
		t.Fatal("queries found too little; test geometry broken")
	}
	before := o.Stats()
	o.Query(interior, nil)
	o.Query(disjoint, nil)
	if s := o.Stats(); s.DirectedWalks-before.DirectedWalks != 2 || s.WalkStalls-before.WalkStalls != 1 {
		t.Fatalf("no-seed boxes took %d walks and %d stalls, want 2 and 1; test geometry broken",
			s.DirectedWalks-before.DirectedWalks, s.WalkStalls-before.WalkStalls)
	}
	for name, run := range map[string]func(){
		"range":          func() { out = o.Query(q, out[:0]) },
		"walked range":   func() { out = o.Query(interior, out[:0]) },
		"stalled range":  func() { out = o.Query(disjoint, out[:0]) },
		"kNN":            func() { out = o.KNN(p, 16, out[:0]) },
		"large-k kNN":    func() { out = o.KNN(p, 300, out[:0]) },
		"restricted kNN": func() { out = restricted.KNN(p, 32, out[:0]) },
		"rebuild+range":  func() { o.Step(); out = o.Query(q, out[:0]) },
		"rebuild+kNN":    func() { o.Step(); out = o.KNN(p, 16, out[:0]) },
	} {
		if raceEnabled && strings.HasSuffix(name, "kNN") {
			continue
		}
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per query in steady state, want 0", name, allocs)
		}
	}
}
