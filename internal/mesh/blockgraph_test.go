package mesh

import (
	"math/rand"
	"slices"
	"testing"

	"octopus/internal/geom"
)

// checkBlockGraph holds g to the adjacency it summarizes: the neighbours
// of each block are exactly the distinct other blocks its vertices have
// an edge to, ascending, over every vertex of the mesh.
func checkBlockGraph(t *testing.T, label string, m *Mesh, g *BlockGraph) {
	t.Helper()
	n := int32(m.NumVertices())
	if got, want := len(g.start)-1, NumCrawlBlocks(int(n)); got != want {
		t.Fatalf("%s: %d blocks for %d vertices, want %d", label, got, n, want)
	}
	for b := int32(0); b < int32(len(g.start)-1); b++ {
		var want []int32
		for v := b * CrawlBlock; v < min((b+1)*CrawlBlock, n); v++ {
			for _, w := range m.Neighbors(v) {
				if c := w / CrawlBlock; c != b && !slices.Contains(want, c) {
					want = append(want, c)
				}
			}
		}
		slices.Sort(want)
		if got := g.Neighbors(b); !slices.Equal(got, want) {
			t.Fatalf("%s: block %d has neighbours %v, its vertices' edges reach %v", label, b, got, want)
		}
	}
}

// TestBlockGraph checks the block-graph memo: built by the first call and
// not before (BlockGraphBytes reads 0 until then), shared by later calls
// and untouched by deformation, and dropped by every SplitCell and
// DeleteCell, so the next call covers the new vertices, the new blocks
// and the changed edges.
func TestBlockGraph(t *testing.T) {
	m := buildTetGrid(t, 6, 5, 4) // 210 vertices: 7 blocks, the last one partial
	if m.BlockGraphBytes() != 0 {
		t.Fatal("the block graph exists before anyone asked for it")
	}
	g := m.BlockGraph()
	checkBlockGraph(t, "built", m, g)
	if got, want := m.BlockGraphBytes(), g.MemoryBytes(); got != want || want == 0 {
		t.Fatalf("BlockGraphBytes = %d, the graph holds %d", got, want)
	}
	m.Deform(func(pos []geom.Vec3) {
		for i := range pos {
			pos[i] = pos[i].Scale(2)
		}
	})
	if m.BlockGraph() != g {
		t.Fatal("a deformation dropped the block graph")
	}

	r := rand.New(rand.NewSource(3))
	blocks := NumCrawlBlocks(m.NumVertices())
	for step := 0; step < 60; step++ {
		ci := r.Intn(len(m.Cells()))
		if m.Cells()[ci].Dead {
			continue
		}
		var err error
		if step%3 == 2 {
			_, err = m.DeleteCell(ci)
		} else {
			_, _, err = m.SplitCell(ci)
		}
		if err != nil {
			t.Fatal(err)
		}
		if m.BlockGraphBytes() != 0 {
			t.Fatalf("step %d: restructuring kept the block graph", step)
		}
		checkBlockGraph(t, "after restructuring", m, m.BlockGraph())
	}
	if NumCrawlBlocks(m.NumVertices()) == blocks {
		t.Fatalf("splits added no block to %d", blocks)
	}
}
