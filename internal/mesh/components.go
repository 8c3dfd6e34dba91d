package mesh

// ConnectedComponents returns the number of connected components of the
// mesh graph and a label array mapping each vertex to its component id in
// [0, count). Isolated vertices (possible after restructuring) each form
// their own component. The returned labels alias internal storage and must
// not be modified.
//
// The labelling is computed once and shared by every engine built over
// the mesh (core.New and con.New each ask for it); its graph search
// touches the whole adjacency, the bulk of an engine's construction on a
// mesh larger than the cache. Restructuring drops the memo
// (recordStructuralDirty), so the next call labels the changed graph into
// a new array and a labelling handed out before stays untouched.
func (m *Mesh) ConnectedComponents() (count int, labels []int32) {
	m.memoMu.Lock()
	defer m.memoMu.Unlock()
	if m.compLabels == nil {
		m.compCount, m.compLabels = m.components()
	}
	return m.compCount, m.compLabels
}

func (m *Mesh) components() (count int, labels []int32) {
	n := int32(m.NumVertices())
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int32
	for s := int32(0); s < n; s++ {
		if labels[s] != -1 {
			continue
		}
		id := int32(count)
		count++
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
	return count, labels
}
