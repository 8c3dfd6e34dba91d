package bench

import (
	"slices"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/sim"
	"octopus/internal/workload"
)

// TestEngineTable pins the engine table: its names are unique, Engines
// selects in the order asked and panics on an unknown name, and every
// entry, built on a small box mesh, answers a range query and a kNN query
// exactly as brute force does.
//
// It also backs DESIGN.md §8's kNN claim on the non-convex neuron meshes:
// after two steps of the default deformer, every engine returns brute
// force's k nearest, nearest first, for 32 probes at each k in {1, 8, 64}
// (neuro-l2 always, neuro-l3 outside -short). OCTOPUS-CON is exempt
// there: its convexity contract allows misses on a neuron.
func TestEngineTable(t *testing.T) {
	all := AllEngines()
	seen := map[string]bool{}
	for _, f := range all {
		if f.Name == "" || seen[f.Name] {
			t.Errorf("engine name %q empty or repeated", f.Name)
		}
		seen[f.Name] = true
	}
	if got := Engines(all[2].Name, all[0].Name); got[0].Name != all[2].Name || got[1].Name != all[0].Name {
		t.Errorf("Engines(%q, %q) selected %q, %q", all[2].Name, all[0].Name, got[0].Name, got[1].Name)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Engines accepted an unknown name")
			}
		}()
		Engines("OCTOPUS", "no-such-engine")
	}()

	m, err := meshgen.BuildBoxTet(6, 6, 6, 1.0/6)
	if err != nil {
		t.Fatal(err)
	}
	center := m.Bounds().Center()
	box := geom.BoxAround(center.Add(geom.V(0.1, -0.05, 0.05)), 0.25)
	p := center.Add(geom.V(-0.2, 0.1, 0.15))
	const k = 7
	wantRange := query.BruteForce(m, box)
	wantKNN := query.BruteForceKNN(m, p, k)
	if len(wantRange) == 0 {
		t.Fatal("range query selects nothing: the check would be vacuous")
	}
	for _, f := range all {
		eng := f.New(m)
		if diff := query.Diff(eng.Query(box, nil), append([]int32(nil), wantRange...)); diff != "" {
			t.Errorf("%s range: %s", f.Name, diff)
		}
		if got := eng.KNN(p, k, nil); !slices.Equal(got, wantKNN) {
			t.Errorf("%s kNN = %v, want %v", f.Name, got, wantKNN)
		}
	}

	neurons := []meshgen.Dataset{meshgen.NeuroL2}
	if !testing.Short() {
		neurons = append(neurons, meshgen.NeuroL3)
	}
	for _, ds := range neurons {
		m, err := meshgen.Build(ds, 1)
		if err != nil {
			t.Fatal(err)
		}
		deformer, err := sim.DefaultDeformer(ds, sim.DefaultAmplitude)
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewGenerator(m, 4096, 42)
		s := sim.New(m, deformer)
		s.Step()
		s.Step()
		var names []string
		var engines []query.ParallelKNNEngine
		for _, f := range all {
			if f.Name != "OCTOPUS-CON" {
				names = append(names, f.Name)
				engines = append(engines, f.New(m))
			}
		}
		for _, k := range []int{1, 8, 64} {
			for i, pr := range gen.KNNQueries(32, k, k, 0.02) {
				want := query.BruteForceKNN(m, pr.P, pr.K)
				for j, eng := range engines {
					if got := eng.KNN(pr.P, pr.K, nil); !slices.Equal(got, want) {
						t.Errorf("%s %s k=%d probe %d: kNN = %v, want %v", ds, names[j], k, i, got, want)
					}
				}
			}
		}
	}
}
