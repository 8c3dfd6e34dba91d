package shard

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/sim"
)

// buildBoxTet builds an n^3-cube tetrahedral mesh with unit spacing scaled
// to cell size h — the convex workhorse geometry of the tests.
func buildBoxTet(t *testing.T, n int, h float64) *mesh.Mesh {
	t.Helper()
	m, err := meshgen.BuildBoxTet(n, n, n, h)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// buildPartialGrid builds a random subset of an n^3 Kuhn-tet grid:
// non-convex, possibly disconnected — the adversarial geometry class.
func buildPartialGrid(t *testing.T, n int, keepProb float64, r *rand.Rand) *mesh.Mesh {
	t.Helper()
	kuhn := [6][4]int{{0, 1, 3, 7}, {0, 1, 5, 7}, {0, 2, 3, 7}, {0, 2, 6, 7}, {0, 4, 5, 7}, {0, 4, 6, 7}}
	b := mesh.NewBuilder(0, 0)
	vid := map[[3]int]int32{}
	vertex := func(x, y, z int) int32 {
		key := [3]int{x, y, z}
		if id, ok := vid[key]; ok {
			return id
		}
		id := b.AddVertex(geom.V(float64(x), float64(y), float64(z)))
		vid[key] = id
		return id
	}
	kept := 0
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				if r != nil && r.Float64() > keepProb {
					continue
				}
				kept++
				var c [8]int32
				for bit := 0; bit < 8; bit++ {
					c[bit] = vertex(x+bit&1, y+(bit>>1)&1, z+(bit>>2)&1)
				}
				for _, k := range kuhn {
					b.AddTet(c[k[0]], c[k[1]], c[k[2]], c[k[3]])
				}
			}
		}
	}
	if kept == 0 {
		var c [8]int32
		for bit := 0; bit < 8; bit++ {
			c[bit] = vertex(bit&1, (bit>>1)&1, (bit>>2)&1)
		}
		for _, k := range kuhn {
			b.AddTet(c[k[0]], c[k[1]], c[k[2]], c[k[3]])
		}
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPartitionInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	meshes := map[string]*mesh.Mesh{
		"box-4":      buildBoxTet(t, 4, 0.25),
		"box-6":      buildBoxTet(t, 6, 1.0/6),
		"partial-5":  buildPartialGrid(t, 5, 0.6, r),
		"partial-4":  buildPartialGrid(t, 4, 0.3, r),
		"single-hex": singleHex(t),
	}
	// Dead cells belong to no shard.
	holed := buildBoxTet(t, 5, 0.2)
	for _, ci := range []int{3, 200, 410, 731} {
		if _, err := holed.DeleteCell(ci); err != nil {
			t.Fatal(err)
		}
	}
	meshes["box-5-dead-cells"] = holed
	for name, m := range meshes {
		for _, k := range []int{1, 2, 3, 4, 8} {
			part, err := NewPartition(m, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			if err := part.Validate(m); err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			wantK := k
			if m.NumVertices() < k {
				wantK = m.NumVertices()
			}
			if part.K != wantK || len(part.Parts) != wantK {
				t.Fatalf("%s k=%d: got K=%d parts=%d", name, k, part.K, len(part.Parts))
			}
			total := 0
			for _, p := range part.Parts {
				total += p.NumOwned
			}
			if total != m.NumVertices() {
				t.Fatalf("%s k=%d: owned total %d, want %d", name, k, total, m.NumVertices())
			}
		}
	}
}

func singleHex(t *testing.T) *mesh.Mesh {
	t.Helper()
	b := mesh.NewBuilder(8, 1)
	var v [8]int32
	corners := [][3]float64{
		{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1},
	}
	for i, c := range corners {
		v[i] = b.AddVertex(geom.V(c[0], c[1], c[2]))
	}
	b.AddHex(v)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPartitionRejectsBadK(t *testing.T) {
	m := buildBoxTet(t, 3, 0.5)
	for _, k := range []int{0, -1} {
		if _, err := NewPartition(m, k); err == nil {
			t.Fatalf("k=%d: expected error", k)
		}
	}
}

func TestPartitionEmptyMesh(t *testing.T) {
	b := mesh.NewBuilder(0, 0)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartition(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if part.K != 0 || len(part.Parts) != 0 {
		t.Fatalf("empty mesh: K=%d parts=%d, want 0/0", part.K, len(part.Parts))
	}
	if err := part.Validate(m); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionHilbertContiguity checks the cut is genuinely along the
// Hilbert order: the shards' key intervals are disjoint, ascending, and
// cover every owned vertex's key.
func TestPartitionHilbertContiguity(t *testing.T) {
	m := buildBoxTet(t, 5, 0.2)
	part, err := NewPartition(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	prevHi := uint64(0)
	for s := range part.Parts {
		lo, hi := keyInterval(part, s)
		if lo >= hi {
			t.Fatalf("shard %d: empty key interval [%d,%d)", s, lo, hi)
		}
		if s > 0 && lo < prevHi-1 {
			// Adjacent shards may share the boundary key (ties broken by
			// id), but intervals must not regress.
			t.Fatalf("shard %d: interval [%d,%d) overlaps previous end %d", s, lo, hi, prevHi)
		}
		prevHi = hi
	}
}

// keyInterval returns the half-open Hilbert key interval [lo, hi) of
// shard s's owned vertices: its range of the (key, id) vertex order.
func keyInterval(part *Partition, s int) (lo, hi uint64) {
	lo = math.MaxUint64
	p := part.Parts[s]
	for l, g := range p.ToGlobal {
		if p.Owned[l] {
			lo, hi = min(lo, part.keys[g]), max(hi, part.keys[g]+1)
		}
	}
	return lo, hi
}

// cutEdges lists shard s's severed adjacencies — edges of the global
// mesh from an owned vertex to one owned by another shard — as (owned
// local id, ghost local id) pairs, owned endpoints in ascending global id
// and each one's neighbours in the global mesh's order.
func cutEdges(m *mesh.Mesh, part *Partition, s int) [][2]int32 {
	p := part.Parts[s]
	local := make(map[int32]int32, len(p.ToGlobal))
	var owned []int32
	for l, g := range p.ToGlobal {
		local[g] = int32(l)
		if p.Owned[l] {
			owned = append(owned, g)
		}
	}
	slices.Sort(owned)
	var edges [][2]int32
	for _, g := range owned {
		for _, w := range m.Neighbors(g) {
			if part.Owner[w] != int32(s) {
				edges = append(edges, [2]int32{local[g], local[w]})
			}
		}
	}
	return edges
}

// TestStopTheWorldMaintenance drives the router exactly like the bench
// harness does, for every engine and shard count: the simulation deforms
// the global mesh in place, Step publishes the positions into every shard
// (one epoch per Step), refreshes the shard boxes and brings every shard
// engine to the head, and queries answer on the moved geometry. A Step
// that finds the global mesh restructured re-partitions and builds each
// touched shard's engine exactly once.
func TestStopTheWorldMaintenance(t *testing.T) {
	for _, ec := range engineCases() {
		for _, k := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/K=%d", ec.name, k), func(t *testing.T) {
				m := buildBoxTet(t, 5, 0.2)
				sm, err := NewMesh(m, k, Options{})
				if err != nil {
					t.Fatal(err)
				}
				built := 0
				r := NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine {
					built++
					return ec.make(sub)
				})
				if sm.Global() != m || sm.K() != k || built != k {
					t.Fatalf("Global() is the source mesh: %v, K() = %d, %d engines built; want true, %d, %d",
						sm.Global() == m, sm.K(), built, k, k)
				}
				var d sim.Deformer = &sim.NoiseDeformer{Amplitude: 0.05, Frequency: 2, Seed: 13}
				queries := equivQueries
				if ec.convexOnly {
					d = &sim.AffineDeformer{
						Pivot: m.Bounds().Center(), MaxScale: 0.05,
						MaxRotate: 0.1, MaxShift: 0.05, Seed: 13,
					}
					queries = equivCubeQueries
				}
				cur := r.NewCursor()
				defer cur.Close()
				check := func(label string, seed int64) {
					t.Helper()
					for qi, q := range queries(m, seed) {
						if diff := query.Diff(cur.Query(q, nil), query.BruteForce(m, q)); diff != "" {
							t.Fatalf("%s query %d: %s", label, qi, diff)
						}
					}
					for pi, p := range equivProbes(m, seed+50) {
						if got, want := cur.(query.KNNCursor).KNN(p.P, p.K, nil), query.BruteForceKNN(m, p.P, p.K); !equalIDs(got, want) {
							t.Fatalf("%s kNN %d: got %v want %v", label, pi, got, want)
						}
					}
				}
				for step := 0; step < 3; step++ {
					d.Step(step, m.Positions()) // in place: the paper's update phase
					r.Step()
					if got, want := sm.Epoch(), uint64(step+1); got != want {
						t.Fatalf("step %d: shard epoch %d, want %d (one per Step)", step, got, want)
					}
					for _, p := range sm.Partition().Parts {
						if p.Mesh.Epoch() != sm.Epoch() {
							t.Fatalf("step %d: shard %d at epoch %d, container at %d", step, p.Index, p.Mesh.Epoch(), sm.Epoch())
						}
						if sum, _ := p.Summary(); sum.Box.IsEmpty() {
							t.Fatal("empty shard box after Step")
						}
						if g := p.Ghosts(); k > 1 && g <= 0 {
							t.Fatalf("shard %d: %d ghosts on a connected mesh at K=%d", p.Index, g, k)
						}
					}
					check(fmt.Sprintf("step %d", step), int64(300+step))
				}

				// A pending re-partition: Step swaps the partition, publishes
				// through it and runs each rebuild task once; the next Step
				// finds the fresh engines at the head.
				if _, _, err := m.SplitCell(0); err != nil {
					t.Fatal(err)
				}
				r.Step()
				st := sm.RepartitionStats()
				if st.Generations != 1 || st.RebuiltShards == 0 || built != k+st.RebuiltShards {
					t.Fatalf("%d engines built after a re-partitioning Step, want %d + %d rebuilt shards (%+v)",
						built, k, st.RebuiltShards, st)
				}
				check("re-partitioned", 400)
				d.Step(3, m.Positions())
				r.Step()
				if built != k+st.RebuiltShards || sm.RepartitionStats().Generations != 1 {
					t.Fatalf("a Step with nothing pending built engines: %d, want %d", built, k+st.RebuiltShards)
				}
				check("after the rebuild", 401)
			})
		}
	}
}

// TestRestructuringAfterPartitionRepartitions pins the live contract
// that replaced the old panic guard: growing the vertex set after the
// cut triggers an incremental re-partition at the next Resync (the
// global mesh recorded the split), after which the partition invariants
// hold and every query over the grown mesh is exact.
func TestRestructuringAfterPartitionRepartitions(t *testing.T) {
	m := buildBoxTet(t, 4, 0.25)
	r := routerOver(t, m, 2)
	if _, _, err := m.SplitCell(0); err != nil {
		t.Fatal(err)
	}
	r.Step() // Resync re-partitions; rebuild tasks run monolithically
	sm := r.Mesh()
	if err := sm.Partition().Validate(m); err != nil {
		t.Fatal(err)
	}
	st := sm.RepartitionStats()
	if st.Generations != 1 || st.FullRebuilds != 0 {
		t.Fatalf("want one incremental re-partition, got %+v", st)
	}
	if total := sm.Partition().Owner; len(total) != m.NumVertices() {
		t.Fatalf("owner table has %d entries, mesh has %d vertices", len(total), m.NumVertices())
	}
	cur := r.NewCursor()
	defer cur.Close()
	for i := 0; i < 8; i++ {
		q := geom.BoxAround(m.Position(int32(i*29%m.NumVertices())), 0.3)
		if diff := query.Diff(cur.Query(q, nil), query.BruteForce(m, q)); diff != "" {
			t.Fatalf("query %d after re-partition: %s", i, diff)
		}
		p := m.Position(int32(i * 41 % m.NumVertices()))
		if got, want := cur.(query.KNNCursor).KNN(p, 7, nil), query.BruteForceKNN(m, p, 7); !equalIDs(got, want) {
			t.Fatalf("kNN %d after re-partition: got %v want %v", i, got, want)
		}
	}
}

// TestPartitionGhostRing checks that every neighbour (in the global mesh)
// of an owned vertex is present in the owner's sub-mesh — the one-cell
// ghost closure that turns cut faces into sub-mesh surface.
func TestPartitionGhostRing(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := buildPartialGrid(t, 4, 0.7, r)
	part, err := NewPartition(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	for s, p := range part.Parts {
		present := make(map[int32]bool, len(p.ToGlobal))
		for _, g := range p.ToGlobal {
			present[g] = true
		}
		for l, g := range p.ToGlobal {
			if !p.Owned[l] {
				continue
			}
			for _, w := range m.Neighbors(g) {
				if !present[w] {
					t.Fatalf("shard %d: neighbour %d of owned vertex %d missing from sub-mesh", s, w, g)
				}
			}
		}
	}
}
