package mesh

// ForgetSurface drops the memoized surface list, so the next
// SurfaceVertices derives it again.
func (m *Mesh) ForgetSurface() {
	m.memoMu.Lock()
	m.surface = nil
	m.memoMu.Unlock()
}
