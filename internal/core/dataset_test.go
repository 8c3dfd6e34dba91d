package core

import (
	"sync"
	"testing"

	"octopus/internal/mesh"
	"octopus/internal/meshgen"
)

// generated holds one pristine mesh per dataset, generated by the first
// test that asks for it (neuro-l5 takes ≈ 1.3 s) and never handed out.
var generated sync.Map // meshgen.Dataset -> *pristine

type pristine struct {
	once sync.Once
	m    *mesh.Mesh
	err  error
}

// dataset returns the test's own copy of a dataset at scale 1, free to
// deform and restructure: the identity renumbering of the package's one
// generated mesh, the same arrays meshgen.Build returns (≈ 50 ms on
// neuro-l5).
func dataset(t testing.TB, id meshgen.Dataset) *mesh.Mesh {
	t.Helper()
	v, _ := generated.LoadOrStore(id, &pristine{})
	p := v.(*pristine)
	p.once.Do(func() { p.m, p.err = meshgen.Build(id, 1) })
	if p.err != nil {
		t.Fatal(p.err)
	}
	identity := make([]int32, p.m.NumVertices())
	for i := range identity {
		identity[i] = int32(i)
	}
	m, err := p.m.Renumber(identity)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
