package bench

import (
	"testing"

	"octopus/internal/geom"
	"octopus/internal/meshgen"
	"octopus/internal/query"
)

// TestEngineTable pins the engine table: its names are unique, Engines
// selects in the order asked and panics on an unknown name, and every
// entry, built on a small box mesh, answers a range query and a kNN query
// exactly as brute force does.
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
		if got := eng.KNN(p, k, nil); !knnExact(got, wantKNN) {
			t.Errorf("%s kNN = %v, want %v", f.Name, got, wantKNN)
		}
	}
}
