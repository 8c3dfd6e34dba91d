package mesh

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"octopus/internal/geom"
)

// This file checks the bucketed build kernels — Build's counting-sorted
// CSR, boundaryFaces and the surface list, surfaceFirst's stable
// partition and permFromKeys — against straightforward oracles: a hash
// map of face counts, a set per vertex, and comparison sorts.

// oracleFaceCounts counts how many live cells share each face.
func oracleFaceCounts(cells []Cell) map[faceKey]int32 {
	count := make(map[faceKey]int32)
	for i := range cells {
		c := &cells[i]
		if c.Dead {
			continue
		}
		for _, f := range cellFaces(c.Type) {
			count[makeFaceKey(c, f)]++
		}
	}
	return count
}

// oracleSurface returns the sorted vertices of the faces counted once.
func oracleSurface(count map[faceKey]int32) []int32 {
	set := make(map[int32]bool)
	for k, n := range count {
		if n != 1 {
			continue
		}
		for _, v := range k {
			if v >= 0 {
				set[v] = true
			}
		}
	}
	out := make([]int32, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// oracleBoundaryCount returns the number of faces counted once.
func oracleBoundaryCount(count map[faceKey]int32) int {
	n := 0
	for _, c := range count {
		if c == 1 {
			n++
		}
	}
	return n
}

// oracleAdjacency returns every vertex's sorted neighbour set over the
// live cells' edges.
func oracleAdjacency(numVerts int, cells []Cell) [][]int32 {
	sets := make([]map[int32]bool, numVerts)
	for v := range sets {
		sets[v] = make(map[int32]bool)
	}
	for i := range cells {
		c := &cells[i]
		if c.Dead {
			continue
		}
		for _, e := range cellEdges(c.Type) {
			a, b := c.Verts[e[0]], c.Verts[e[1]]
			sets[a][b] = true
			sets[b][a] = true
		}
	}
	adj := make([][]int32, numVerts)
	for v, set := range sets {
		for w := range set {
			adj[v] = append(adj[v], w)
		}
		slices.Sort(adj[v])
	}
	return adj
}

// oracleSurfaceFirst is the comparison-sort surface-first permutation:
// surface vertices first, each group ordered by within (nil = by id).
func oracleSurfaceFirst(m *Mesh, within []int32) []int32 {
	n := m.NumVertices()
	onSurface := make([]bool, n)
	for _, v := range m.SurfaceVertices() {
		onSurface[v] = true
	}
	rank := func(old int32) int32 {
		if within == nil {
			return old
		}
		return within[old]
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if onSurface[a] != onSurface[b] {
			if onSurface[a] {
				return -1
			}
			return 1
		}
		return cmp.Compare(rank(a), rank(b))
	})
	perm := make([]int32, n)
	for newID, old := range order {
		perm[old] = int32(newID)
	}
	return perm
}

// distinctVerts returns k distinct vertex ids in [0, n), none in avoid.
func distinctVerts(rng *rand.Rand, n, k int, avoid []int32) []int32 {
	out := make([]int32, 0, k)
	for _, v := range rng.Perm(n) {
		if len(out) == k {
			break
		}
		if !slices.Contains(avoid, int32(v)) {
			out = append(out, int32(v))
		}
	}
	return out
}

// randomMixedCells returns numCells random tets and hexes over n >= 12
// vertices. Besides independent cells it grows neighbours across an
// existing cell's face (so faces are shared by two cells) and repeats
// whole cells (so some faces are shared by three), which exercises runs
// of every length in the face buckets.
func randomMixedCells(rng *rand.Rand, n, numCells int) []Cell {
	var cells []Cell
	for len(cells) < numCells {
		switch r := rng.Intn(10); {
		case len(cells) > 0 && r < 4: // grow a neighbour across a face
			src := cells[rng.Intn(len(cells))]
			faces := cellFaces(src.Type)
			f := faces[rng.Intn(len(faces))]
			var shared []int32
			for _, idx := range f {
				if idx >= 0 {
					shared = append(shared, src.Verts[idx])
				}
			}
			c := Cell{Type: src.Type}
			copy(c.Verts[:], shared)
			copy(c.Verts[len(shared):], distinctVerts(rng, n, c.VertexCount()-len(shared), shared))
			cells = append(cells, c)
		case len(cells) > 0 && r < 5: // repeat a cell
			cells = append(cells, cells[rng.Intn(len(cells))])
		case r < 8:
			c := Cell{Type: Tetrahedron}
			copy(c.Verts[:], distinctVerts(rng, n, 4, nil))
			cells = append(cells, c)
		default:
			c := Cell{Type: Hexahedron}
			copy(c.Verts[:], distinctVerts(rng, n, 8, nil))
			cells = append(cells, c)
		}
	}
	return cells
}

// buildCells builds a mesh over n random positions and the given cells.
func buildCells(t *testing.T, rng *rand.Rand, n int, cells []Cell) *Mesh {
	t.Helper()
	b := NewBuilder(n, len(cells))
	for i := 0; i < n; i++ {
		b.AddVertex(geom.V(rng.Float64(), rng.Float64(), rng.Float64()))
	}
	for _, c := range cells {
		if c.Type == Tetrahedron {
			b.AddTet(c.Verts[0], c.Verts[1], c.Verts[2], c.Verts[3])
		} else {
			b.AddHex(c.Verts)
		}
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkAgainstOracles compares m's CSR, surface list, boundary face
// count and surface-first permutations with the oracles over its cells.
func checkAgainstOracles(t *testing.T, m *Mesh) {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for v, want := range oracleAdjacency(m.NumVertices(), m.cells) {
		if got := m.Neighbors(int32(v)); !slices.Equal(got, want) {
			t.Fatalf("neighbours of %d: %v, want %v", v, got, want)
		}
	}
	count := oracleFaceCounts(m.cells)
	if got, want := m.SurfaceVertices(), oracleSurface(count); !slices.Equal(got, want) {
		t.Fatalf("surface %v, want %v", got, want)
	}
	if got, want := m.BoundaryFaceCount(), oracleBoundaryCount(count); got != want {
		t.Fatalf("boundary faces %d, want %d", got, want)
	}
	if got, want := m.SurfaceFirstPerm(), oracleSurfaceFirst(m, nil); !slices.Equal(got, want) {
		t.Fatalf("surface-first perm %v, want %v", got, want)
	}
	hilbert := m.HilbertPerm(2) // a coarse curve, so keys tie
	if got, want := m.SurfaceFirstHilbertPerm(2), oracleSurfaceFirst(m, hilbert); !slices.Equal(got, want) {
		t.Fatalf("surface-first Hilbert perm %v, want %v", got, want)
	}
}

// TestBuildKernelsMatchOracles runs random mixed tet/hex meshes — with
// isolated vertices, shared and thrice-shared faces — through the
// bucketed kernels and the oracles, before and after Renumber, and with
// dead cells in the cell list.
func TestBuildKernelsMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		n := 12 + rng.Intn(50)
		cells := randomMixedCells(rng, n, 4+rng.Intn(40))
		m := buildCells(t, rng, n, cells)
		checkAgainstOracles(t, m)

		// Renumbering a memoized mesh seeds the copy's surface; it must
		// equal both the oracle and a fresh derivation.
		perm := make([]int32, n)
		for i, p := range rng.Perm(n) {
			perm[i] = int32(p)
		}
		rm, err := m.Renumber(perm)
		if err != nil {
			t.Fatal(err)
		}
		if rm.surface == nil {
			t.Fatal("Renumber of a memoized mesh did not seed the copy's surface")
		}
		if fresh := surfaceOf(rm.cells, n); !slices.Equal(rm.surface, fresh) {
			t.Fatalf("seeded surface %v, fresh %v", rm.surface, fresh)
		}
		checkAgainstOracles(t, rm)

		// Renumbering before the surface was ever asked for seeds nothing.
		cold := buildCells(t, rng, n, cells)
		rc, err := cold.Renumber(perm)
		if err != nil {
			t.Fatal(err)
		}
		if rc.surface != nil {
			t.Fatal("Renumber invented a surface memo")
		}
		checkAgainstOracles(t, rc)

		// Dead cells drop out of the face list.
		dead := slices.Clone(m.cells)
		for i := range dead {
			dead[i].Dead = rng.Intn(3) == 0
		}
		count := oracleFaceCounts(dead)
		if got, want := surfaceOf(dead, n), oracleSurface(count); !slices.Equal(got, want) {
			t.Fatalf("surface with dead cells %v, want %v", got, want)
		}
		faces := 0
		boundaryFaces(dead, n, func(faceKey) { faces++ })
		if want := oracleBoundaryCount(count); faces != want {
			t.Fatalf("boundary faces with dead cells %d, want %d", faces, want)
		}
	}
}

// TestCheckEdgeSlots pins Build's size limit: the directed edge slots of
// the cell list must fit the int32 CSR offsets.
func TestCheckEdgeSlots(t *testing.T) {
	const maxTets = math.MaxInt32 / 12 // 12 directed slots per tet
	for _, tc := range []struct {
		tets, hexes int
		ok          bool
	}{
		{0, 0, true},
		{1000, 1000, true},
		{maxTets, 0, true},
		{maxTets + 1, 0, false},
		{0, math.MaxInt32 / 24, true},
		{0, math.MaxInt32/24 + 1, false},
		{maxTets, 1, false},
	} {
		if err := checkEdgeSlots(tc.tets, tc.hexes); (err == nil) != tc.ok {
			t.Errorf("checkEdgeSlots(%d, %d) = %v, want ok=%v", tc.tets, tc.hexes, err, tc.ok)
		}
	}
}

// TestPermFromKeysMatchesSort checks the (key, id) order against a
// comparison sort on keys with many ties.
func TestPermFromKeysMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		keys := make([]uint64, rng.Intn(200))
		for i := range keys {
			keys[i] = uint64(rng.Intn(1 + trial))
		}
		order := make([]int32, len(keys))
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
		got := permFromKeys(keys)
		for newID, old := range order {
			if got[old] != int32(newID) {
				t.Fatalf("keys %v: perm %v, want order %v", keys, got, order)
			}
		}
	}
}
