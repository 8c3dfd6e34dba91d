package mesh

import (
	"cmp"
	"fmt"
	"slices"

	"octopus/internal/geom"
	"octopus/internal/hilbert"
)

// Renumber returns a copy of the mesh with vertices renumbered (and
// stored) according to perm, where perm[old] = new. Cells and adjacency
// are remapped; the receiver is untouched. Renumbering a restructured mesh
// is not supported — renumber first, restructure later. If the receiver's
// surface list is memoized, the copy's is seeded with it, mapped through
// perm and re-sorted: a permutation does not change which vertices are on
// the surface, only their ids.
//
// Vertex layout is the lever behind both data-organization optimizations
// of this reproduction: Hilbert ordering for crawl cache locality (paper
// §IV-H1) and surface-first ordering, which stores the surface index's
// vertices contiguously so the surface probe costs the model's sequential
// unit cost CS rather than a cache-line-per-vertex gather.
func (m *Mesh) Renumber(perm []int32) (*Mesh, error) {
	n := len(m.pos)
	if len(m.patched) != 0 {
		return nil, fmt.Errorf("mesh: cannot renumber after restructuring")
	}
	if len(perm) != n {
		return nil, fmt.Errorf("mesh: perm length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			return nil, fmt.Errorf("mesh: perm is not a permutation")
		}
		seen[p] = true
	}

	pos := make([]geom.Vec3, n)
	src := m.front()
	for old := 0; old < n; old++ {
		pos[perm[old]] = src[old]
	}

	adjStart := make([]int32, n+1)
	for old := int32(0); old < int32(n); old++ {
		adjStart[perm[old]+1] = int32(len(m.Neighbors(old)))
	}
	for v := 0; v < n; v++ {
		adjStart[v+1] += adjStart[v]
	}
	adjList := make([]int32, adjStart[n])
	for old := int32(0); old < int32(n); old++ {
		nv := perm[old]
		dst := adjList[adjStart[nv]:adjStart[nv+1]]
		for i, w := range m.Neighbors(old) {
			dst[i] = perm[w]
		}
		slices.Sort(dst)
	}

	cells := make([]Cell, 0, m.liveCells)
	for i := range m.cells {
		c := m.cells[i]
		if c.Dead {
			continue
		}
		for k := 0; k < c.VertexCount(); k++ {
			c.Verts[k] = perm[c.Verts[k]]
		}
		cells = append(cells, c)
	}

	rm := newMesh(pos, adjStart, adjList, cells)
	m.memoMu.Lock()
	memo := m.surface
	m.memoMu.Unlock()
	if memo != nil {
		surf := make([]int32, len(memo))
		for i, v := range memo {
			surf[i] = perm[v]
		}
		slices.Sort(surf)
		rm.surface = surf
	}
	return rm, nil
}

// HilbertPerm returns the permutation (old → new) that orders vertices by
// the Hilbert index of their current position.
func (m *Mesh) HilbertPerm(order uint) []int32 {
	n := len(m.pos)
	mapper := hilbert.NewMapper(order, m.Bounds())
	keys := make([]uint64, n)
	pos := m.front()
	for v := 0; v < n; v++ {
		keys[v] = mapper.Index(pos[v])
	}
	return permFromKeys(keys)
}

// BFSPerm returns the permutation (old → new) that orders vertices by a
// deterministic breadth-first traversal of the mesh graph: components in
// ascending order of their lowest vertex id, each component from that
// vertex, neighbors in ascending id order. BFS order is the classic
// graph-native layout baseline — vertices discovered together are stored
// together — against which the layout ablation bench measures the
// geometry-native Hilbert order.
func (m *Mesh) BFSPerm() []int32 {
	n := len(m.pos)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = -1
	}
	queue := make([]int32, 0, n)
	next := int32(0)
	for s := int32(0); s < int32(n); s++ {
		if perm[s] >= 0 {
			continue
		}
		perm[s] = next
		next++
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			for _, w := range m.Neighbors(queue[head]) {
				if perm[w] < 0 {
					perm[w] = next
					next++
					queue = append(queue, w)
				}
			}
		}
	}
	return perm
}

// SurfaceFirstPerm returns the permutation that stable-partitions the
// vertices so all surface vertices come first (preserving their current
// relative order), followed by all interior vertices.
func (m *Mesh) SurfaceFirstPerm() []int32 {
	return m.surfaceFirst(nil)
}

// SurfaceFirstHilbertPerm combines both layouts: surface vertices first,
// interior after, each group internally in Hilbert order — dense probes
// and cache-friendly crawls at once.
func (m *Mesh) SurfaceFirstHilbertPerm(order uint) []int32 {
	return m.surfaceFirst(m.HilbertPerm(order))
}

// surfaceFirst builds a surface-first permutation; within orders each
// group (a permutation, old → rank) or is nil for natural order. It is a
// stable partition in O(V): vertices are visited in rank order, through
// within's inverse, and dealt to the surface or the interior group.
func (m *Mesh) surfaceFirst(within []int32) []int32 {
	n := len(m.pos)
	surface := m.SurfaceVertices()
	onSurface := make([]bool, n)
	for _, v := range surface {
		onSurface[v] = true
	}
	byRank := make([]int32, n) // byRank[rank] = old id
	for old := range byRank {
		r := int32(old)
		if within != nil {
			r = within[old]
		}
		byRank[r] = int32(old)
	}
	perm := make([]int32, n)
	nextSurface, nextInterior := int32(0), int32(len(surface))
	for _, old := range byRank {
		if onSurface[old] {
			perm[old] = nextSurface
			nextSurface++
		} else {
			perm[old] = nextInterior
			nextInterior++
		}
	}
	return perm
}

// ReorderHilbert returns a copy of the mesh in Hilbert order plus the
// permutation used; it is Renumber(HilbertPerm(order)).
func (m *Mesh) ReorderHilbert(order uint) (*Mesh, []int32, error) {
	perm := m.HilbertPerm(order)
	rm, err := m.Renumber(perm)
	return rm, perm, err
}

// permFromKeys converts sort keys into a permutation (old → new), breaking
// ties by old id.
func permFromKeys(keys []uint64) []int32 {
	type keyed struct {
		key uint64
		id  int32
	}
	order := make([]keyed, len(keys))
	for i, k := range keys {
		order[i] = keyed{k, int32(i)}
	}
	slices.SortFunc(order, func(a, b keyed) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	perm := make([]int32, len(keys))
	for newID, o := range order {
		perm[o.id] = int32(newID)
	}
	return perm
}
