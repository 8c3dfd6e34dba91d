package mesh

// Components is a connected-component labelling of the mesh graph.
// Isolated vertices (possible after restructuring) each form their own
// component. Its slices alias the mesh's memo and must not be modified.
type Components struct {
	// Labels maps each vertex to its component id in [0, Count()).
	Labels []int32
	// Reps holds one representative per component: its lowest vertex id.
	// On a surface-first layout that is the component's first surface
	// vertex whenever it has one.
	Reps []int32
}

// Count returns the number of components.
func (c *Components) Count() int { return len(c.Reps) }

// MemoryBytes reports the labelling's footprint.
func (c *Components) MemoryBytes() int64 { return int64(len(c.Labels)+len(c.Reps)) * 4 }

// ConnectedComponents returns the mesh's connected components. It is a
// topology memo like BlockGraph: built by the first call (one search over
// the whole adjacency, the bulk of an engine's construction on a mesh
// larger than the cache), read lock-free after that and shared by every
// engine over the mesh. Restructuring drops it, and rebuilds it at once
// when the mesh has a surface index (reindexSurface), so it always labels
// the current graph; a labelling handed out before stays untouched.
func (m *Mesh) ConnectedComponents() *Components {
	if c := m.comps.Load(); c != nil {
		return c
	}
	m.memoMu.Lock()
	defer m.memoMu.Unlock()
	if c := m.comps.Load(); c != nil {
		return c
	}
	c := m.components()
	m.comps.Store(c)
	return c
}

// ComponentsBytes reports the footprint of the component labelling if it
// has been built, 0 otherwise.
func (m *Mesh) ComponentsBytes() int64 {
	if c := m.comps.Load(); c != nil {
		return c.MemoryBytes()
	}
	return 0
}

// components labels the graph by depth-first search, seeding each
// component at its first unlabelled id — which is its representative.
func (m *Mesh) components() *Components {
	n := int32(m.NumVertices())
	c := &Components{Labels: make([]int32, n)}
	labels := c.Labels
	for i := range labels {
		labels[i] = -1
	}
	var queue []int32
	for s := int32(0); s < n; s++ {
		if labels[s] != -1 {
			continue
		}
		id := int32(len(c.Reps))
		c.Reps = append(c.Reps, s)
		labels[s] = id
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range m.Neighbors(v) {
				if labels[w] == -1 {
					labels[w] = id
					queue = append(queue, w)
				}
			}
		}
	}
	return c
}
