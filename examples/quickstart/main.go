// Quickstart: build a small tetrahedral mesh, deform it in place like a
// simulation would, and answer range queries with OCTOPUS — verifying
// against a brute-force scan.
package main

import (
	"fmt"
	"math"

	"octopus"
)

func main() {
	// Build a 12x12x12 block of cubes, each split into 6 tetrahedra.
	const n = 12
	b := octopus.NewMeshBuilder((n+1)*(n+1)*(n+1), n*n*n*6)
	vid := func(x, y, z int) int32 { return int32(x + y*(n+1) + z*(n+1)*(n+1)) }
	h := 1.0 / n
	for z := 0; z <= n; z++ {
		for y := 0; y <= n; y++ {
			for x := 0; x <= n; x++ {
				b.AddVertex(octopus.V(float64(x)*h, float64(y)*h, float64(z)*h))
			}
		}
	}
	kuhn := [6][4]int{{0, 1, 3, 7}, {0, 1, 5, 7}, {0, 2, 3, 7}, {0, 2, 6, 7}, {0, 4, 5, 7}, {0, 4, 6, 7}}
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				var c [8]int32
				for bit := 0; bit < 8; bit++ {
					c[bit] = vid(x+bit&1, y+(bit>>1)&1, z+(bit>>2)&1)
				}
				for _, k := range kuhn {
					b.AddTet(c[k[0]], c[k[1]], c[k[2]], c[k[3]])
				}
			}
		}
	}
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	stats := octopus.ComputeMeshStats(m)
	fmt.Println("mesh:", stats)

	// One-time preprocessing: extract the surface index.
	eng := octopus.New(m)
	fmt.Printf("surface index: %d of %d vertices\n", eng.SurfaceSize(), m.NumVertices())

	// The simulation loop: deform every vertex in place, then query.
	pos := m.Positions()
	for step := 0; step < 5; step++ {
		for i := range pos {
			pos[i] = pos[i].Add(octopus.V(
				0.003*math.Sin(float64(step)+7*pos[i].Y),
				0.003*math.Cos(float64(step)+9*pos[i].Z),
				0.003*math.Sin(float64(step)+8*pos[i].X),
			))
		}
		eng.Step() // required after in-place writes: refits the probe boxes, one pass over the surface

		q := octopus.BoxAround(octopus.V(0.5, 0.5, 0.5), 0.15)
		got := eng.Query(q, nil)
		want := octopus.BruteForce(m, q)
		fmt.Printf("step %d: %d vertices in %v (ground truth %d)\n",
			step, len(got), q, len(want))
		if len(got) != len(want) {
			panic("OCTOPUS result disagrees with ground truth")
		}
	}

	s := eng.Stats()
	fmt.Printf("phases: probe %v, walk %v, crawl %v\n", s.SurfaceProbe, s.DirectedWalk, s.Crawl)
}
