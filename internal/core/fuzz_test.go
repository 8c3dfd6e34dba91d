package core

// Go native fuzz targets for the two paths whose correctness depends on
// geometry and connectivity interacting: box-query execution (probe +
// walk + crawl against arbitrary boxes on arbitrarily deformed meshes)
// and restructuring delta application (surface index maintenance under
// random split/delete sequences). Both check against brute force, so any
// divergence — missed seed, stale surface slot, broken component
// labeling — fails loudly. CI runs a short -fuzz smoke on each; the
// committed corpus under testdata/fuzz seeds interesting shapes (empty
// boxes, whole-mesh boxes, degenerate thin slabs, post-delete queries).

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/sim"
)

// fuzzMesh builds a small deterministic tet block of n cells a side and
// deforms it with the given seed so every fuzz input sees a distinct,
// reproducible geometry.
func fuzzMesh(t *testing.T, n int, seed int64) *mesh.Mesh {
	t.Helper()
	m := buildBox(t, n)
	d := &sim.NoiseDeformer{Amplitude: 0.05, Frequency: 2.5, Seed: seed}
	for step := 0; step < int(uint64(seed)%3); step++ {
		d.Step(step, m.Positions())
	}
	return m
}

func finite(vals ...float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// componentsWithin counts the connected components of ids under the mesh
// adjacency restricted to ids — the in-box subgraph the crawl operates
// on.
func componentsWithin(m *mesh.Mesh, ids []int32) int {
	in := make(map[int32]bool, len(ids))
	for _, v := range ids {
		in[v] = true
	}
	seen := make(map[int32]bool, len(ids))
	comps := 0
	for _, v := range ids {
		if seen[v] {
			continue
		}
		comps++
		stack := []int32{v}
		seen[v] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range m.Neighbors(u) {
				if in[w] && !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return comps
}

// checkRangeContract asserts the documented range-query guarantee
// (DESIGN.md §4) of a result set against brute force: when the in-box
// vertex set is edge-connected (or empty) the result must equal brute
// force exactly; otherwise the crawl contract still requires soundness
// (only in-box vertices, no duplicates), closure (an in-box neighbour of
// a result vertex is in the result), and non-emptiness whenever brute
// force is non-empty (a walk that finds nothing scans for a seed).
func checkRangeContract(t *testing.T, m *mesh.Mesh, name string, q geom.AABB, got, want []int32) {
	t.Helper()
	if componentsWithin(m, want) <= 1 {
		if d := query.Diff(append([]int32(nil), got...), append([]int32(nil), want...)); d != "" {
			t.Fatalf("%s diverges from brute force on connected result: %s", name, d)
		}
		return
	}
	pos := m.Positions()
	inWant := make(map[int32]bool, len(want))
	for _, v := range want {
		inWant[v] = true
	}
	gotSet := make(map[int32]bool, len(got))
	for _, v := range got {
		if !inWant[v] {
			t.Fatalf("%s returned %d, which is not in the box", name, v)
		}
		if gotSet[v] {
			t.Fatalf("%s returned duplicate id %d", name, v)
		}
		gotSet[v] = true
	}
	for _, v := range got {
		for _, w := range m.Neighbors(v) {
			if q.Contains(pos[w]) && !gotSet[w] {
				t.Fatalf("%s violates crawl closure: %d in result, in-box neighbour %d missing", name, v, w)
			}
		}
	}
	if len(got) == 0 && len(want) > 0 {
		t.Fatalf("%s returned empty, brute force has %d results", name, len(want))
	}
}

// checkKNNContract asserts the documented kNN guarantee (DESIGN.md §8)
// of an answer against brute force: as many ids as brute force, nearest
// first with ties by ascending id, and every vertex of brute force's
// answer that the engine is exact on among them. Both engines are exact
// on a vertex alone in its component, which its representative seeds;
// OCTOPUS, whose probe offers every surface vertex within the bound
// (probed), also on the surface. What the contract lets an answer miss is
// what the crawl's stop criterion cannot reach: an interior pocket (a
// split's centroid nearer than its cell's corners), and for OCTOPUS-CON
// anything a non-convex mesh hides from its descents.
func checkKNNContract(t *testing.T, m *mesh.Mesh, name string, p geom.Vec3, k int, got []int32, probed bool) {
	t.Helper()
	want := query.BruteForceKNN(m, p, k)
	if len(got) != len(want) {
		t.Fatalf("%s k=%d: %d results, want %d", name, k, len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		a, b := m.Position(got[i-1]).Dist2(p), m.Position(got[i]).Dist2(p)
		if a > b || a == b && got[i-1] >= got[i] {
			t.Fatalf("%s k=%d: %v is not nearest first with ties by id", name, k, got)
		}
	}
	comps := m.ConnectedComponents()
	size := make([]int, comps.Count())
	for _, c := range comps.Labels {
		size[c]++
	}
	surface := m.SurfaceVertices()
	for _, v := range want {
		_, onSurface := slices.BinarySearch(surface, v)
		if (size[comps.Labels[v]] == 1 || probed && onSurface) && !slices.Contains(got, v) {
			t.Fatalf("%s k=%d: %v misses %d (surface %v), brute force says %v", name, k, got, v, onSurface, want)
		}
	}
}

// FuzzRangeQuery fuzzes box-query geometry on both OCTOPUS and
// OCTOPUS-CON: arbitrary corners (any order, any overlap with the mesh,
// degenerate extents included) on a seed-deformed mesh, checked against
// the documented guarantee via checkRangeContract. OCTOPUS additionally
// must return every in-box surface vertex (the probe offers them all in
// exact mode), hold the vertex BFS's answer from its seeds and answer a
// repeat with the same slice (checkCrawlAnswer). The mesh then moves
// under the live engines — in place with a Step, then through Deform —
// and the same box is asked again after each move: the surface spans four
// probe blocks, so a box array that outlives the positions it was
// computed from drops seeds here.
func FuzzRangeQuery(f *testing.F) {
	f.Add(int64(1), 0.2, 0.2, 0.2, 0.8, 0.8, 0.8)    // interior box
	f.Add(int64(2), -1.0, -1.0, -1.0, 2.0, 2.0, 2.0) // whole mesh
	f.Add(int64(3), 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)    // point box
	f.Add(int64(4), 0.9, -0.5, 0.4, 0.1, 1.5, 0.41)  // thin slab, reversed corners
	f.Add(int64(5), 3.0, 3.0, 3.0, 4.0, 4.0, 4.0)    // disjoint from the mesh
	f.Fuzz(func(t *testing.T, seed int64, ax, ay, az, bx, by, bz float64) {
		if !finite(ax, ay, az, bx, by, bz) {
			t.Skip("non-finite corner")
		}
		m := fuzzMesh(t, 8, seed)
		q := geom.Box(geom.V(ax, ay, az), geom.V(bx, by, bz))
		o, c := New(m), NewCon(m, 64)
		if blocks := (o.SurfaceSize() + mesh.ProbeBlock - 1) / mesh.ProbeBlock; blocks < 4 {
			t.Fatalf("fuzz mesh spans %d probe blocks, want at least 4", blocks)
		}
		check := func(stage string) {
			want := query.BruteForce(m, q)
			gotO := o.Query(q, nil)
			checkRangeContract(t, m, "OCTOPUS "+stage, q, gotO, want)
			// The block crawl's own contract: the vertex BFS's answer from
			// the same seeds is a subset, and a repeat is the same slice.
			checkCrawlAnswer(t, "OCTOPUS "+stage, m, q, o.resident.seeds, gotO, want)
			if again := o.Query(q, nil); !slices.Equal(again, gotO) {
				t.Fatalf("OCTOPUS %s: a repeated query answered %d vertices, the first %d", stage, len(again), len(gotO))
			}
			// Surface completeness: exact-mode probes offer every in-box
			// surface vertex, connected or not.
			inGot := make(map[int32]bool, len(gotO))
			for _, v := range gotO {
				inGot[v] = true
			}
			pos := m.Positions()
			for _, v := range o.idx.Slots() {
				if q.Contains(pos[v]) && !inGot[v] {
					t.Fatalf("OCTOPUS %s missed in-box surface vertex %d", stage, v)
				}
			}
			checkRangeContract(t, m, "OCTOPUS-CON "+stage, q, c.Query(q, nil), want)
		}
		check("as built")

		// A coarse wave, large against the box: blocks leave their boxes.
		move := &sim.NoiseDeformer{Amplitude: 0.3, Frequency: 0.7, Seed: seed}
		move.Step(1, m.Positions())
		o.Step()
		c.Step()
		check("after an in-place step")

		for step := 2; step < 5; step++ { // both buffers, and the first one again
			m.Deform(func(pos []geom.Vec3) { move.Step(step, pos) })
			check("after a published step")
		}
	})
}

// FuzzBlockProbe holds the two-level block probe to the linear passes it
// replaces (linearProbe, linearFolds) on random clouds: from one slot to
// several coarse boxes, coordinates on a small integer grid so that
// distance ties abound, with and without the layout's locality, with and
// without non-finite coordinates, unrestricted and under RestrictKNN.
// Every range box must yield the same seeds in the same order; every kNN
// the same start, the same candidates after a stand-in crawl and the same
// folds, and an answer equal to brute force (matchLinearPass).
func FuzzBlockProbe(f *testing.F) {
	f.Add(int64(1), uint16(1), uint8(2), true, uint8(0))
	f.Add(int64(2), uint16(mesh.ProbeBlock*mesh.ProbeFan+1), uint8(3), true, uint8(20))
	f.Add(int64(3), uint16(3*mesh.ProbeBlock*mesh.ProbeFan+7), uint8(4), false, uint8(0))
	f.Add(int64(4), uint16(mesh.ProbeBlock*mesh.ProbeFan), uint8(1), true, uint8(5))
	// A leaf NaN on x throughout reads nearest a kNN probe point; it
	// holds no vertex at a defined distance and must not be the start.
	f.Add(int64(-15), uint16(150), uint8(142), true, uint8(235))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, spread uint8, drift bool, nonFinite uint8) {
		n %= 4 * mesh.ProbeBlock * mesh.ProbeFan
		if n == 0 || spread == 0 {
			t.Skip("empty cloud")
		}
		r := rand.New(rand.NewSource(seed))
		m, o := tieCloud(t, r, int(n), int(spread), drift, int(nonFinite))
		cur := o.NewCursor().(*Cursor)
		pos := m.Positions()
		for i := 0; i < 16; i++ {
			c := pos[r.Intn(len(pos))]
			if i%4 == 3 || !finite(c.X, c.Y, c.Z) {
				c = geom.V(r.Float64()*float64(n)/8, r.Float64()*float64(spread), r.Float64()*float64(spread))
			}
			q := geom.BoxAround(c, float64(r.Intn(int(spread)+2))*0.5)
			matchLinearPass(t, fmt.Sprintf("query %d", i), o, cur, r, q, c, 1+r.Intn(40))
		}
	})
}

// FuzzSurfaceDelta fuzzes restructuring: a random split/delete sequence
// is applied to the mesh, which folds each SurfaceDelta into its surface
// index and relabels its components itself; no engine is told. After
// every operation the index's slot map must invert its slot order and the
// current boxes must equal a recomputation; at the end the mesh must
// still validate, and a range query and the kNN of OCTOPUS and
// OCTOPUS-CON (both built before the first operation) must still hold
// their contracts against brute force (checkRangeContract,
// checkKNNContract). This exercises the O(1) surface-slot maintenance,
// the dense-layout invalidation, the refit and the component-label
// rebuild.
func FuzzSurfaceDelta(f *testing.F) {
	f.Add(int64(1), uint8(3), 0.3, 0.3, 0.3, 0.6)
	f.Add(int64(7), uint8(9), 0.0, 0.0, 0.0, 2.0)  // many ops, whole-mesh query
	f.Add(int64(11), uint8(1), 0.9, 0.9, 0.9, 0.2) // single op, corner query
	f.Fuzz(func(t *testing.T, seed int64, nOps uint8, qx, qy, qz, r float64) {
		if !finite(qx, qy, qz, r) || r < 0 || r > 100 {
			t.Skip("unusable query")
		}
		m := fuzzMesh(t, 3, seed)
		o, con := New(m), NewCon(m, 0)
		rng := rand.New(rand.NewSource(seed))

		ops := int(nOps)%8 + 1
		for i := 0; i < ops; i++ {
			var live []int
			for ci := range m.Cells() {
				if !m.Cells()[ci].Dead {
					live = append(live, ci)
				}
			}
			if len(live) == 0 {
				break
			}
			ci := live[rng.Intn(len(live))]
			var err error
			if rng.Intn(2) == 0 {
				_, _, err = m.SplitCell(ci)
			} else {
				_, err = m.DeleteCell(ci)
			}
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			checkIndex(t, fmt.Sprintf("op %d", i), o)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("mesh invalid after restructuring: %v", err)
		}

		q := geom.BoxAround(geom.V(qx, qy, qz), r)
		checkRangeContract(t, m, "OCTOPUS", q, o.Query(q, nil), query.BruteForce(m, q))
		p := geom.V(qx, qy, qz)
		for _, k := range []int{1, 1 + int(r)%16} {
			checkKNNContract(t, m, "OCTOPUS", p, k, o.KNN(p, k, nil), true)
			checkKNNContract(t, m, "OCTOPUS-CON", p, k, con.KNN(p, k, nil), false)
		}
		// The surface index must agree with a fresh extraction.
		if got, want := slices.Sorted(slices.Values(o.idx.Slots())), m.SurfaceVertices(); !slices.Equal(got, want) {
			t.Fatalf("surface %v after deltas, fresh extraction says %v", got, want)
		}
	})
}
