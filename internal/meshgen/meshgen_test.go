package meshgen

import (
	"math"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/mesh"
)

func TestShapeDistances(t *testing.T) {
	s := Sphere{Center: geom.V(1, 0, 0), Radius: 2}
	if d := s.Dist(geom.V(1, 0, 0)); d != -2 {
		t.Errorf("sphere center dist = %v", d)
	}
	if d := s.Dist(geom.V(4, 0, 0)); d != 1 {
		t.Errorf("sphere outside dist = %v", d)
	}

	c := Capsule{A: geom.V(0, 0, 0), B: geom.V(10, 0, 0), Radius: 1}
	if d := c.Dist(geom.V(5, 0, 0)); d != -1 {
		t.Errorf("capsule axis dist = %v", d)
	}
	if d := c.Dist(geom.V(5, 3, 0)); math.Abs(d-2) > 1e-12 {
		t.Errorf("capsule side dist = %v", d)
	}
	if d := c.Dist(geom.V(12, 0, 0)); math.Abs(d-1) > 1e-12 {
		t.Errorf("capsule cap dist = %v", d)
	}
	// Degenerate capsule behaves like a sphere.
	pt := Capsule{A: geom.V(1, 1, 1), B: geom.V(1, 1, 1), Radius: 0.5}
	if d := pt.Dist(geom.V(1, 1, 2)); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("degenerate capsule dist = %v", d)
	}

	e := Ellipsoid{Center: geom.V(0, 0, 0), SemiAxes: geom.V(2, 1, 1)}
	if d := e.Dist(geom.V(0, 0, 0)); d >= 0 {
		t.Errorf("ellipsoid center not inside: %v", d)
	}
	if d := e.Dist(geom.V(2, 0, 0)); math.Abs(d) > 1e-12 {
		t.Errorf("ellipsoid boundary dist = %v", d)
	}
	if d := e.Dist(geom.V(3, 0, 0)); d <= 0 {
		t.Errorf("ellipsoid outside not positive: %v", d)
	}

	b := BoxShape{Box: geom.Box(geom.V(0, 0, 0), geom.V(2, 2, 2))}
	if d := b.Dist(geom.V(1, 1, 1)); d != -1 {
		t.Errorf("box center dist = %v", d)
	}
	if d := b.Dist(geom.V(3, 1, 1)); d != 1 {
		t.Errorf("box outside dist = %v", d)
	}

	u := Union{s, b}
	if d := u.Dist(geom.V(1, 0, 0)); d != -2 {
		t.Errorf("union dist = %v", d)
	}
	if u.Bounds().IsEmpty() {
		t.Error("union bounds empty")
	}
}

func TestVoxelizeSphere(t *testing.T) {
	m, err := Voxelize(Sphere{Center: geom.V(0, 0, 0), Radius: 1}, 0.2)
	if err != nil {
		t.Fatalf("Voxelize: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumVertices() < 300 {
		t.Errorf("suspiciously few vertices: %d", m.NumVertices())
	}
	// Volume sanity: cells*h^3 should approximate the sphere volume.
	cells := m.NumCells() / 6
	approxVol := float64(cells) * 0.2 * 0.2 * 0.2
	wantVol := 4.0 / 3.0 * math.Pi
	if math.Abs(approxVol-wantVol)/wantVol > 0.15 {
		t.Errorf("voxel volume %g too far from sphere volume %g", approxVol, wantVol)
	}
	// One connected component.
	if n := m.ConnectedComponents().Count(); n != 1 {
		t.Errorf("sphere mesh has %d components", n)
	}
	// All vertices within bounds of the (grown) sphere.
	for v := int32(0); v < int32(m.NumVertices()); v++ {
		if m.Position(v).Len() > 1.0+0.4 {
			t.Fatalf("vertex %v far outside sphere", m.Position(v))
		}
	}
}

func TestVoxelizeErrors(t *testing.T) {
	if _, err := Voxelize(Sphere{Radius: 1}, 0); err == nil {
		t.Error("expected error for zero cell size")
	}
	if _, err := Voxelize(Sphere{Radius: 0.001}, 10); err == nil {
		t.Error("expected error for empty voxelization")
	}
}

func TestBuildBoxTet(t *testing.T) {
	m, err := BuildBoxTet(4, 3, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumVertices() != 5*4*3 {
		t.Errorf("vertices = %d", m.NumVertices())
	}
	if m.NumCells() != 4*3*2*6 {
		t.Errorf("cells = %d", m.NumCells())
	}
	wantBounds := geom.Box(geom.V(0, 0, 0), geom.V(2, 1.5, 1))
	if got := m.Bounds(); got != wantBounds {
		t.Errorf("bounds = %v, want %v", got, wantBounds)
	}
	if _, err := BuildBoxTet(0, 1, 1, 1); err == nil {
		t.Error("expected dimension error")
	}
}

func TestBuildBoxHex(t *testing.T) {
	m, err := BuildBoxHex(3, 3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumCells() != 27 {
		t.Errorf("cells = %d", m.NumCells())
	}
	// 3x3x3 hex block: the 2x2x2 inner vertex block is interior.
	if got := len(m.SurfaceVertices()); got != 64-8 {
		t.Errorf("surface vertices = %d, want 56", got)
	}
	if _, err := BuildBoxHex(1, 0, 1, 1); err == nil {
		t.Error("expected dimension error")
	}
}

func TestBuildNeuronSmallLevel(t *testing.T) {
	m, err := BuildNeuron(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Two neuron cells -> exactly two connected components.
	if n := m.ConnectedComponents().Count(); n != 2 {
		t.Errorf("neuron mesh has %d components, want 2", n)
	}
	s := mesh.ComputeStats(m)
	if s.Vertices < 2000 {
		t.Errorf("level-1 neuron too small: %d vertices", s.Vertices)
	}
	if s.SurfaceRatio <= 0 || s.SurfaceRatio >= 1 {
		t.Errorf("S:V = %v", s.SurfaceRatio)
	}
	t.Logf("neuron L1: %v", s)
}

func TestNeuronDetailTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("detail trend test builds two levels")
	}
	m1, err := BuildNeuron(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := BuildNeuron(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := mesh.ComputeStats(m1), mesh.ComputeStats(m2)
	if s2.Vertices <= s1.Vertices {
		t.Errorf("vertex count did not grow with detail: %d -> %d", s1.Vertices, s2.Vertices)
	}
	if s2.SurfaceRatio >= s1.SurfaceRatio {
		t.Errorf("S:V did not shrink with detail: %.4f -> %.4f", s1.SurfaceRatio, s2.SurfaceRatio)
	}
}

func TestBuildNeuronErrors(t *testing.T) {
	if _, err := BuildNeuron(0, 1); err == nil {
		t.Error("expected level error")
	}
	if _, err := BuildNeuron(6, 1); err == nil {
		t.Error("expected level error")
	}
	if _, err := BuildNeuron(1, 0.5); err == nil {
		t.Error("expected scale error")
	}
}

func TestAnimationDatasets(t *testing.T) {
	for _, name := range []string{AnimHorse, AnimCamel} {
		m, err := BuildAnimation(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := m.ConnectedComponents().Count(); n != 1 {
			t.Errorf("%s: %d components", name, n)
		}
	}
	if _, err := BuildAnimation("no-such", 1); err == nil {
		t.Error("expected unknown animation error")
	}
	if _, err := BuildAnimation(AnimHorse, 0); err == nil {
		t.Error("expected scale error")
	}
}

func TestAnimationSteps(t *testing.T) {
	for name, want := range map[string]int{AnimHorse: 48, AnimFace: 9, AnimCamel: 53} {
		got, err := AnimationSteps(name)
		if err != nil || got != want {
			t.Errorf("AnimationSteps(%s) = %d, %v", name, got, err)
		}
	}
	if _, err := AnimationSteps("bogus"); err == nil {
		t.Error("expected error")
	}
}

func TestBuildByID(t *testing.T) {
	m, err := Build(EqSF2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := mesh.ComputeStats(m)
	// SF2 targets the paper's S:V of 0.16.
	if s.SurfaceRatio < 0.12 || s.SurfaceRatio > 0.20 {
		t.Errorf("SF2 S:V = %.3f, want about 0.16", s.SurfaceRatio)
	}
	if _, err := Build("nope", 1); err == nil {
		t.Error("expected unknown dataset error")
	}
	if got := NeuroLevel(3); got != NeuroL3 {
		t.Errorf("NeuroLevel(3) = %q", got)
	}
	if len(AllDatasets()) != 10 {
		t.Errorf("AllDatasets = %d entries", len(AllDatasets()))
	}
}

func TestBuildCachedResetsPositions(t *testing.T) {
	m1, err := BuildCached(NeuroL1, 1)
	if err != nil {
		t.Fatal(err)
	}
	orig := m1.Position(0)
	m1.SetPosition(0, orig.Add(geom.V(5, 5, 5)))

	m2, err := BuildCached(NeuroL1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Error("cache did not reuse the mesh")
	}
	if m2.Position(0) != orig {
		t.Errorf("positions not reset: %v != %v", m2.Position(0), orig)
	}
}

func TestScaleEnv(t *testing.T) {
	t.Setenv("OCTOPUS_SCALE", "2.5")
	if got := Scale(); got != 2.5 {
		t.Errorf("Scale = %v", got)
	}
	t.Setenv("OCTOPUS_SCALE", "0.1") // below 1: ignored
	if got := Scale(); got != 1 {
		t.Errorf("Scale = %v", got)
	}
	t.Setenv("OCTOPUS_SCALE", "junk")
	if got := Scale(); got != 1 {
		t.Errorf("Scale = %v", got)
	}
}
