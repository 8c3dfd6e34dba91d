package mesh

import "slices"

// CrawlBlockShift sets the unit the range crawl moves in: a crawl block is
// a run of 1<<CrawlBlockShift consecutive vertex ids, block b holding the
// ids [b<<CrawlBlockShift, (b+1)<<CrawlBlockShift). Every dataset and
// sub-mesh is laid out in Hilbert order, so a block is a compact piece of
// the mesh and its positions one contiguous run of memory.
const CrawlBlockShift = 5

// CrawlBlock is the number of vertex ids in one crawl block.
const CrawlBlock = 1 << CrawlBlockShift

// NumCrawlBlocks returns the number of crawl blocks over n vertices.
func NumCrawlBlocks(n int) int { return (n + CrawlBlock - 1) >> CrawlBlockShift }

// BlockGraph is the adjacency between crawl blocks: the neighbours of
// block b are the distinct other blocks that any vertex of b has an edge
// to. It depends on connectivity alone, so deformation never touches it.
type BlockGraph struct {
	start []int32 // neighbours of b: list[start[b]:start[b+1]]
	list  []int32
}

// Neighbors returns the blocks adjacent to block b, ascending. The slice
// aliases the graph and must not be modified.
func (g *BlockGraph) Neighbors(b int32) []int32 { return g.list[g.start[b]:g.start[b+1]] }

// MemoryBytes reports the graph's footprint.
func (g *BlockGraph) MemoryBytes() int64 { return int64(len(g.start)+len(g.list)) * 4 }

// BlockGraph returns the mesh's block graph. It is a topology memo like
// SurfaceVertices and ConnectedComponents: built by the first call (one
// pass over the adjacency, ≈ 18 ms on neuro-l5), read lock-free after
// that, and dropped by every restructuring operation, so it always covers
// the current vertices and edges.
func (m *Mesh) BlockGraph() *BlockGraph {
	if g := m.blockGraph.Load(); g != nil {
		return g
	}
	m.memoMu.Lock()
	defer m.memoMu.Unlock()
	if g := m.blockGraph.Load(); g != nil {
		return g
	}
	g := m.buildBlockGraph()
	m.blockGraph.Store(g)
	return g
}

// BlockGraphBytes reports the footprint of the block graph if it has been
// built, 0 otherwise.
func (m *Mesh) BlockGraphBytes() int64 {
	if g := m.blockGraph.Load(); g != nil {
		return g.MemoryBytes()
	}
	return 0
}

func (m *Mesh) buildBlockGraph() *BlockGraph {
	n := len(m.pos)
	nb := NumCrawlBlocks(n)
	g := &BlockGraph{start: make([]int32, nb+1)}
	seen := make([]int32, nb) // seen[c] == b+1: c is already a neighbour of b
	for b := range nb {
		first := len(g.list)
		for v := b << CrawlBlockShift; v < min(n, (b+1)<<CrawlBlockShift); v++ {
			for _, w := range m.Neighbors(int32(v)) {
				if c := w >> CrawlBlockShift; int(c) != b && seen[c] != int32(b+1) {
					seen[c] = int32(b + 1)
					g.list = append(g.list, c)
				}
			}
		}
		slices.Sort(g.list[first:])
		g.start[b+1] = int32(len(g.list))
	}
	g.list = slices.Clip(g.list)
	return g
}
