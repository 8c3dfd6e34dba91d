package sim

import (
	"fmt"
	"math"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
)

// Simulation drives a mesh through discrete time steps, applying a Deformer
// in place — the paper's Figure 1(e) loop. The monitoring side (queries and
// index maintenance) is orchestrated by the caller between steps.
type Simulation struct {
	Mesh     *mesh.Mesh
	Deformer Deformer
	step     int
}

// New returns a simulation at step 0.
func New(m *mesh.Mesh, d Deformer) *Simulation {
	return &Simulation{Mesh: m, Deformer: d}
}

// Step advances the simulation one time step, updating every vertex
// position, and returns the step index just executed. The update runs
// through Mesh.Deform: it writes the back buffer and publishes a new
// epoch, so queries through pinned cursors may run concurrently with the
// step. A driver that wants the paper's in-place update (no second
// buffer, no copy) calls Deformer.Step on Mesh.Positions() itself.
func (s *Simulation) Step() int {
	step := s.step
	s.Mesh.Deform(func(pos []geom.Vec3) { s.Deformer.Step(step, pos) })
	s.step++
	return step
}

// StepsDone returns the number of steps executed so far.
func (s *Simulation) StepsDone() int { return s.step }

// DefaultDeformer returns the deformer that models each named dataset's
// simulation: smooth unpredictable noise for the (non-convex) neuroscience
// meshes, a convexity-preserving affine wobble for the earthquake meshes,
// and the three animation deformations for the deforming-mesh datasets.
// amplitude scales the per-step displacement relative to the dataset's
// characteristic feature size.
func DefaultDeformer(id meshgen.Dataset, amplitude float64) (Deformer, error) {
	switch id {
	case meshgen.NeuroL1, meshgen.NeuroL2, meshgen.NeuroL3, meshgen.NeuroL4, meshgen.NeuroL5:
		return &NoiseDeformer{Amplitude: amplitude, Frequency: 1.5, Seed: 7}, nil
	case meshgen.EqSF2, meshgen.EqSF1:
		return &AffineDeformer{
			Pivot:     geom.V(0.5, 0.5, 0.5),
			MaxScale:  2 * amplitude,
			MaxRotate: amplitude,
			MaxShift:  amplitude / 2,
			Seed:      11,
		}, nil
	case meshgen.DSHorse:
		return &WaveDeformer{Amplitude: amplitude * 4, WaveLength: 2.5, Speed: 0.35}, nil
	case meshgen.DSCamel:
		return &CompressDeformer{Pivot: geom.V(0, 0, 0), MaxCompress: amplitude * 8, Period: 26}, nil
	case meshgen.DSFace:
		return &BlendDeformer{
			Centers: []geom.Vec3{
				{X: 0.4, Y: 0.8, Z: 0.6}, {X: -0.4, Y: 0.8, Z: 0.6},
				{X: 0, Y: -0.7, Z: 0.8}, {X: 0.6, Y: 0, Z: 0.7}, {X: -0.6, Y: 0, Z: 0.7},
			},
			Radius:    0.5,
			Amplitude: amplitude * 4,
			Seed:      13,
		}, nil
	}
	return nil, fmt.Errorf("sim: no default deformer for dataset %q", id)
}

// DefaultAmplitude is a displacement per step that is large enough to defeat
// trajectory prediction yet small enough to keep generated meshes
// well-shaped over the paper's 60-step horizon.
const DefaultAmplitude = 0.002

// MaxDisplacement runs one deformer step on a copy of the positions and
// returns the maximum per-vertex displacement — used by tests and by
// QU-Trade-style engines to tune grace windows.
func MaxDisplacement(d Deformer, step int, pos []geom.Vec3) float64 {
	cp := make([]geom.Vec3, len(pos))
	copy(cp, pos)
	d.Step(step, cp)
	maxD2 := 0.0
	for i := range pos {
		if d2 := cp[i].Dist2(pos[i]); d2 > maxD2 {
			maxD2 = d2
		}
	}
	return math.Sqrt(maxD2)
}
