// Package shard partitions a mesh into K spatially coherent sub-meshes and
// executes range and kNN queries across them — serving meshes larger than
// one engine's rebuild budget. The same cut is the unit of distribution:
// internal/dist serves each shard from its own process behind a wire
// protocol, on this package's partition, per-shard executor (Exec) and
// cross-shard cursor (Fanout) (DESIGN.md §15).
//
// The partitioner (Partition) cuts the vertex set into K contiguous ranges
// of the Hilbert order already used for the crawl-locality vertex layout:
// each shard owns an interval of the space-filling curve, so shards are
// compact in space, their bounding boxes overlap little, and a range query
// typically touches only the shards its box intersects. Every vertex is
// owned by exactly one shard; a shard's sub-mesh additionally carries a
// one-cell ghost ring — replicas of the cells that the cut severed — so the
// cut faces become ordinary sub-mesh surface. A crawl that would have
// exited the shard terminates at that surface, and the router re-seeds the
// continuation in the neighboring shard simply by fanning the query out to
// it. Validate checks that ring: every owned vertex has exactly its global
// neighbours in its shard's sub-mesh.
//
// Mesh (the shard container) wraps the K sub-meshes plus the original
// global mesh, propagating deformation into every shard; Router wraps one
// query engine per shard and implements query.ParallelKNNEngine. Its
// cursors are Fanouts: range queries fan out to the shards whose
// owned-vertex bounding box intersects the query and whose occupancy
// bitmap has a cell in it, and concatenate the remapped results; kNN
// visits shards best-first by box distance under a shared query.KBest
// bound that prunes shards that cannot contribute. The
// Fanout reaches the shards through a Legs — Execs behind the coherence
// gate here, RPC stubs in internal/dist — so planning, merging, pruning
// and the epoch proof exist once. See DESIGN.md §10.
package shard

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"octopus/internal/geom"
	"octopus/internal/hilbert"
	"octopus/internal/mesh"
)

// DefaultHilbertOrder is the Hilbert curve order used to key vertices and
// to lay out every shard's sub-mesh: 2^10 cells per axis, matching the
// layout order the dataset generators use.
const DefaultHilbertOrder = 10

// Part is one shard of a partition: a self-contained sub-mesh holding the
// shard's owned vertices plus a one-cell ghost ring, with the tables
// mapping its local vertex ids back to the global mesh.
type Part struct {
	// Index is the shard's position in Partition.Parts.
	Index int

	// Mesh is the shard's sub-mesh: every cell of the global mesh with at
	// least one owned vertex, over the union of those cells' vertices. It
	// is stored surface-first with Hilbert secondary order, like the
	// dataset generators' output, so per-shard engines see their usual
	// layout. Cut faces are genuine surface of this mesh.
	Mesh *mesh.Mesh

	// ToGlobal maps local vertex ids (indices into Mesh) to global ids.
	ToGlobal []int32

	// Owned[l] reports whether local vertex l is owned by this shard.
	// Results at non-owned (ghost) vertices are the neighboring shard's to
	// report; the router filters them out.
	Owned []bool

	// NumOwned is the count of owned vertices (len(ToGlobal) - ghosts).
	NumOwned int

	// frame is the partition's frame, which the occupancy bitmap grids;
	// sum caches the summary of the last epoch it was asked for, and
	// sumMu lets one caller compute it.
	frame geom.AABB
	sum   atomic.Pointer[summaryMemo]
	sumMu sync.Mutex
}

// Ghosts returns the number of ghost (non-owned) vertices in the
// sub-mesh.
func (p *Part) Ghosts() int { return len(p.ToGlobal) - p.NumOwned }

// Partition is a complete K-way Hilbert partition of a global mesh.
type Partition struct {
	// K is the number of shards. It may be smaller than requested when the
	// mesh has fewer vertices than shards, and 0 for an empty mesh.
	K int

	// Parts holds the shards in ascending Hilbert-interval order.
	Parts []*Part

	// Owner maps every global vertex id to the index of its owning shard.
	Owner []int32

	// LocalID maps every global vertex id to its local id inside the
	// owning shard (Parts[Owner[g]].ToGlobal[LocalID[g]] == g).
	LocalID []int32

	// Incremental re-partitioning state (DESIGN.md §13). The partition
	// retains the Hilbert key of every vertex, the complete (key, id)
	// vertex order, and the K cut points delimiting the shards in that
	// order, so Apply can splice re-keyed vertices into the order and
	// shift cuts without re-keying or re-sorting the whole mesh.
	keys   []uint64   // keys[g] = Hilbert key of global vertex g
	order  []int32    // global ids sorted by (key, id)
	cuts   []cutPoint // len K; shard s owns order range [cuts[s], cuts[s+1])
	mapper *hilbert.Mapper
	frame  geom.AABB // the mapper's bounds: every part's occupancy frame
	// ghostRefs[g] lists every (shard, local id) replicating global
	// vertex g as a ghost — the incremental Resync's scatter plan.
	ghostRefs [][]ghostRef
}

// cutPoint is a (key, id) threshold in the Hilbert vertex order: shard s
// owns the vertices at or after cuts[s] and before cuts[s+1]. Thresholds
// are values, not vertex references — a vertex whose key changes simply
// lands on the other side.
type cutPoint struct {
	key uint64
	id  int32
}

// ghostRef locates one ghost replica of a global vertex.
type ghostRef struct {
	shard, local int32
}

// rebalanceTol is the owned-vertex imbalance tolerance: a shard's owned
// count may drift this fraction away from its equal share before Apply
// shifts the cut points.
const rebalanceTol = 0.25

// Options is NewMesh's option set. It has no fields: the partition
// re-cuts only after restructuring, with a fixed tolerance
// (rebalanceTol), so there is nothing to tune. The struct stays so
// callers keep the NewMesh(m, k, Options{}) signature.
type Options struct{}

// NewPartition cuts m into k shards of (nearly) equal vertex count along
// the Hilbert order of the current vertex positions. k is clamped to the
// vertex count; an empty mesh yields a partition with zero shards. The
// global mesh is not modified and may not have been restructured (like
// mesh.Mesh.Renumber, partition first, restructure — per shard — later).
func NewPartition(m *mesh.Mesh, k int) (*Partition, error) {
	part, _, err := newPartition(m, k, &RepartitionStats{})
	return part, err
}

// newPartition is NewPartition adding its migration — every vertex and
// cell — to st. It returns the partition and its shards' indices.
func newPartition(m *mesh.Mesh, k int, st *RepartitionStats) (*Partition, []int, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("shard: k = %d, want >= 1", k)
	}
	n := m.NumVertices()
	k = min(k, n)

	// Key every vertex and sort by (key, id): the id tie-break makes the
	// cut deterministic even on degenerate geometry where many vertices
	// share a Hilbert cell.
	frame := m.Bounds()
	mapper := hilbert.NewMapper(DefaultHilbertOrder, frame)
	pos := m.Positions()
	keys := make([]uint64, n)
	order := make([]int32, n)
	for v := range keys {
		keys[v] = mapper.Index(pos[v])
		order[v] = int32(v)
	}
	slices.SortFunc(order, func(a, b int32) int { return compareKeyed(keys, a, b) })

	// Equal ranges: shard s owns order[s*n/k : (s+1)*n/k], non-empty as
	// k <= n.
	idx := make([]int, k+1)
	for s := 1; s <= k; s++ {
		idx[s] = s * n / k
	}
	part := &Partition{K: k, keys: keys, order: order, mapper: mapper, frame: frame}
	built, err := part.assemble(m, idx, nil, nil, st)
	if err != nil {
		return nil, nil, err
	}
	return part, built, nil
}

// assemble completes part — its K, keys, order, mapper and frame set —
// as the cut of order at idx: shard s owns order[idx[s]:idx[s+1]]. It
// records the cut points, assigns owners and diffs them against prev: a
// shard is built when it gains or loses an owned vertex or owns a vertex
// of a dirty cell (the dead cell must leave, and its replacements enter,
// each such shard's sub-mesh). Every other shard's sub-mesh, remap
// tables and ghost ring are functions of its owned set and the cells
// incident to it, none of which changed, so its part is prev's, shared
// by pointer. With prev nil every shard is built and every vertex is
// new. assemble fills LocalID and the ghost plan, adds the vertices and
// cells that migrated, the live cells and the built shards to st, sets
// st.ImbalanceAfter, and returns the built shards.
func (part *Partition) assemble(m *mesh.Mesh, idx []int, prev *Partition, dirty []int32, st *RepartitionStats) ([]int, error) {
	n, k := len(part.order), part.K
	part.cuts = make([]cutPoint, k)
	part.Owner = make([]int32, n)
	for s := 0; s < k; s++ {
		v := part.order[idx[s]]
		part.cuts[s] = cutPoint{key: part.keys[v], id: v}
		for _, v := range part.order[idx[s]:idx[s+1]] {
			part.Owner[v] = int32(s)
		}
	}
	st.ImbalanceAfter = imbalanceOf(idx)

	// A vertex migrates when it is new or changed owner; its old and new
	// owners are both built.
	build := make([]bool, k)
	migrated := make([]bool, n)
	for v, o := range part.Owner {
		if prev != nil && v < len(prev.Owner) {
			if prev.Owner[v] == o {
				continue
			}
			build[prev.Owner[v]] = true
		}
		migrated[v] = true
		build[o] = true
		st.MigratedVerts++
	}
	cells := m.Cells()
	dirtyCell := make([]bool, len(cells))
	for _, ci := range dirty {
		dirtyCell[ci] = true
		c := &cells[ci]
		for _, v := range c.Verts[:c.VertexCount()] {
			build[part.Owner[v]] = true
		}
	}

	// Bucket the live cells in one pass: a cell goes to every built shard
	// owning at least one of its vertices (≤ 8 distinct owners), and
	// migrates with a dirty cell or a migrated vertex.
	cellsBy := make([][]int32, k)
	for ci := range cells {
		c := &cells[ci]
		if c.Dead {
			continue
		}
		st.TotalCellsSeen++
		moved := dirtyCell[ci]
		var owners [8]int32
		no := 0
		for _, v := range c.Verts[:c.VertexCount()] {
			moved = moved || migrated[v]
			if o := part.Owner[v]; !slices.Contains(owners[:no], o) {
				owners[no] = o
				no++
				if build[o] {
					cellsBy[o] = append(cellsBy[o], int32(ci))
				}
			}
		}
		if moved {
			st.MigratedCells++
		}
	}

	// Build the shards, each from its owned set re-sorted by global id
	// (the deterministic local numbering the sub-mesh build uses).
	part.Parts = make([]*Part, k)
	var built []int
	for s := 0; s < k; s++ {
		if !build[s] {
			part.Parts[s] = prev.Parts[s]
			continue
		}
		owned := slices.Clone(part.order[idx[s]:idx[s+1]])
		slices.Sort(owned)
		p, err := buildPart(m, part.frame, s, owned, cellsBy[s])
		if err != nil {
			return nil, err
		}
		part.Parts[s] = p
		built = append(built, s)
	}
	st.RebuiltShards += len(built)

	part.LocalID = make([]int32, n)
	part.ghostRefs = make([][]ghostRef, n)
	for s, p := range part.Parts {
		for l, g := range p.ToGlobal {
			if p.Owned[l] {
				part.LocalID[g] = int32(l)
			} else {
				part.ghostRefs[g] = append(part.ghostRefs[g], ghostRef{shard: int32(s), local: int32(l)})
			}
		}
	}
	return built, nil
}

// imbalanceOf is max owned count over mean owned count for the ranges in
// idx (shard s owns idx[s+1] - idx[s] vertices).
func imbalanceOf(idx []int) float64 {
	n, k := idx[len(idx)-1], len(idx)-1
	if n == 0 || k == 0 {
		return 1
	}
	most := 0
	for s := 0; s < k; s++ {
		most = max(most, idx[s+1]-idx[s])
	}
	return float64(most) * float64(k) / float64(n)
}

// compareKeyed orders global vertex ids by (Hilbert key, id) — the
// partition's vertex order.
func compareKeyed(keys []uint64, a, b int32) int {
	if c := cmp.Compare(keys[a], keys[b]); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// Replica locates one copy of a global vertex in the sharded layout:
// the shard holding it and its local id there.
type Replica struct {
	Shard, Local int32
}

// AppendReplicas appends every replica of global vertex g — the owning
// copy first, then the ghost ring — to dst and returns it. This is the
// per-vertex form of the Resync scatter plan: a publisher that knows
// which global vertices moved uses it to translate the dirty set into
// per-shard (local id, position) deltas without touching the unmoved
// vertices — the distributed delta publish (DESIGN.md §16).
func (part *Partition) AppendReplicas(g int32, dst []Replica) []Replica {
	dst = append(dst, Replica{Shard: part.Owner[g], Local: part.LocalID[g]})
	for _, r := range part.ghostRefs[g] {
		dst = append(dst, Replica{Shard: r.shard, Local: r.local})
	}
	return dst
}

// buildPart builds shard s from its pre-bucketed owned vertices (sorted
// by global id) and cell list: the sub-mesh over those cells, relaid out
// surface-first/Hilbert, plus the remap tables. frame is the partition's
// occupancy frame.
func buildPart(m *mesh.Mesh, frame geom.AABB, s int, ownedIDs, shardCells []int32) (*Part, error) {
	// Owned vertices enter in global-id order first, ghosts after (in
	// cell-scan order), so the pre-relayout local order is deterministic.
	toLocal := make(map[int32]int32)
	var toGlobal []int32
	addVertex := func(g int32) int32 {
		if l, ok := toLocal[g]; ok {
			return l
		}
		l := int32(len(toGlobal))
		toLocal[g] = l
		toGlobal = append(toGlobal, g)
		return l
	}
	for _, g := range ownedIDs {
		addVertex(g)
	}
	numOwned := len(toGlobal)

	cells := m.Cells()
	b := mesh.NewBuilder(numOwned, len(shardCells))
	for _, ci := range shardCells {
		c := &cells[ci]
		for i := 0; i < c.VertexCount(); i++ {
			addVertex(c.Verts[i])
		}
	}

	pos := m.Positions()
	for _, g := range toGlobal {
		b.AddVertex(pos[g])
	}
	for _, ci := range shardCells {
		c := &cells[ci]
		if c.Type == mesh.Tetrahedron {
			b.AddTet(toLocal[c.Verts[0]], toLocal[c.Verts[1]], toLocal[c.Verts[2]], toLocal[c.Verts[3]])
		} else {
			var hv [8]int32
			for i := range hv {
				hv[i] = toLocal[c.Verts[i]]
			}
			b.AddHex(hv)
		}
	}
	sub, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", s, err)
	}

	p := &Part{
		Index:    s,
		ToGlobal: toGlobal,
		Owned:    make([]bool, len(toGlobal)),
		NumOwned: numOwned,
		frame:    frame,
	}
	for i := 0; i < numOwned; i++ {
		p.Owned[i] = true
	}

	// Relayout: surface vertices (including the cut faces) first, Hilbert
	// order within each group — the same layout the dataset generators
	// produce, so per-shard engines keep their dense-probe fast path.
	perm := sub.SurfaceFirstHilbertPerm(DefaultHilbertOrder)
	sub, err = sub.Renumber(perm)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", s, err)
	}
	p.Mesh = sub
	p.applyPerm(perm)
	return p, nil
}

// applyPerm rewrites the part's local-id tables after a Renumber with
// perm (old local -> new local).
func (p *Part) applyPerm(perm []int32) {
	toGlobal := make([]int32, len(p.ToGlobal))
	owned := make([]bool, len(p.Owned))
	for old, g := range p.ToGlobal {
		toGlobal[perm[old]] = g
		owned[perm[old]] = p.Owned[old]
	}
	p.ToGlobal = toGlobal
	p.Owned = owned
}

// Validate checks the partition's structural invariants against the
// global mesh it was built from: exact vertex coverage, round-tripping
// remap tables, owned-AABB containment, occupancy-bitmap coverage,
// sub-mesh validity and the ghost ring. Intended for tests and the fuzz
// harness.
func (part *Partition) Validate(m *mesh.Mesh) error {
	n := m.NumVertices()
	if len(part.Owner) != n || len(part.LocalID) != n {
		return fmt.Errorf("shard: owner/local tables sized %d/%d, want %d",
			len(part.Owner), len(part.LocalID), n)
	}
	ownedSeen := make([]int, n)
	for s := range part.Parts {
		if err := part.validateShard(m, s, ownedSeen); err != nil {
			return err
		}
	}
	for g, c := range ownedSeen {
		if c != 1 {
			return fmt.Errorf("shard: global vertex %d owned by %d shards", g, c)
		}
	}
	return nil
}

// validateShard checks one shard's structural invariants: sub-mesh
// validity, round-tripping remap tables, owner-table agreement, position
// coherence with the global mesh, owned-AABB containment, every owned
// vertex's cell set in the current epoch's occupancy bitmap, and the
// ghost ring — every owned vertex's sub-mesh neighbours, mapped to global
// ids, are exactly its global neighbours, so a crawl leaving the shard
// meets a ghost wherever the global mesh continues. Apply
// re-runs it on every touched shard after a migration; Validate runs it
// on all of them. ownedSeen, when non-nil, accumulates per-global-vertex
// ownership counts for Validate's exact-coverage check.
func (part *Partition) validateShard(m *mesh.Mesh, s int, ownedSeen []int) error {
	n := m.NumVertices()
	p := part.Parts[s]
	if err := p.Mesh.Validate(); err != nil {
		return fmt.Errorf("shard %d: %w", s, err)
	}
	if len(p.ToGlobal) != p.Mesh.NumVertices() || len(p.Owned) != p.Mesh.NumVertices() {
		return fmt.Errorf("shard %d: remap tables sized %d/%d, want %d",
			s, len(p.ToGlobal), len(p.Owned), p.Mesh.NumVertices())
	}
	numOwned := 0
	pos := p.Mesh.Positions()
	gpos := m.Positions()
	sum, _ := p.Summary()
	var got, want []int32
	for l, g := range p.ToGlobal {
		if g < 0 || int(g) >= n {
			return fmt.Errorf("shard %d: local %d maps to out-of-range global %d", s, l, g)
		}
		if pos[l] != gpos[g] {
			return fmt.Errorf("shard %d: local %d position diverged from global %d", s, l, g)
		}
		if p.Owned[l] {
			numOwned++
			if ownedSeen != nil {
				ownedSeen[g]++
			}
			if part.Owner[g] != int32(s) {
				return fmt.Errorf("shard %d: owns global %d, owner table says %d", s, g, part.Owner[g])
			}
			if part.LocalID[g] != int32(l) {
				return fmt.Errorf("shard %d: global %d local id %d, table says %d", s, g, l, part.LocalID[g])
			}
			if !sum.Box.Contains(pos[l]) {
				return fmt.Errorf("shard %d: owned vertex %d outside shard box", s, l)
			}
			if !sum.Occ.Meets(geom.AABB{Min: pos[l], Max: pos[l]}) {
				return fmt.Errorf("shard %d: owned vertex %d's cell is not set in the occupancy bitmap", s, l)
			}
			got = got[:0]
			for _, w := range p.Mesh.Neighbors(int32(l)) {
				got = append(got, p.ToGlobal[w])
			}
			want = append(want[:0], m.Neighbors(g)...)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				return fmt.Errorf("shard %d: owned global %d has neighbours %v in its shard, %v in the mesh", s, g, got, want)
			}
		} else if part.Owner[g] == int32(s) {
			return fmt.Errorf("shard %d: global %d marked ghost but owner table says owned", s, g)
		}
	}
	if numOwned != p.NumOwned {
		return fmt.Errorf("shard %d: NumOwned %d, counted %d", s, p.NumOwned, numOwned)
	}
	if numOwned == 0 {
		return fmt.Errorf("shard %d: no owned vertices", s)
	}
	return nil
}
