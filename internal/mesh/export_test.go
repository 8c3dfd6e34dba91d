package mesh

// ForgetSurface drops the topology memos, as a restructuring operation
// does, so the next SurfaceVertices derives the list again.
func (m *Mesh) ForgetSurface() { m.forgetTopology() }
