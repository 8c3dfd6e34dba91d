package shard

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"octopus/internal/mesh"
)

// This file implements live incremental re-partitioning (DESIGN.md §13):
// Partition.Apply turns a build-once partition into an incrementally
// maintained one. With space-filling-curve keys a partition is nothing
// but K-1 cut points in the (key, id)-sorted vertex order, so
// re-partitioning after restructuring reduces to (1) re-keying only the
// vertices the dirty cells touched, (2) splicing them back into the
// retained order, (3) shifting the cut points the minimal distance that
// brings every shard's owned count back inside the balance tolerance,
// and (4) rebuilding only the shards whose owned set or cell set
// actually changed — everyone else's sub-mesh, remap tables, ghost ring
// and cut edges are provably unchanged and carried over by reference.

// ApplyStats reports what one Apply call did.
type ApplyStats struct {
	// Full reports that Apply fell back to a from-scratch NewPartition
	// (no structural dirt for a grown mesh, or a shrunk or empty one).
	Full bool
	// Touched lists the shards that were rebuilt.
	Touched []int
	// MigratedVerts counts vertices whose owner changed, including
	// restructuring-created vertices adopted by their key's owner.
	MigratedVerts int
	// MigratedCells counts live cells with at least one migrated vertex
	// or a membership change (the dirty cells), out of LiveCells.
	MigratedCells int
	// LiveCells is the global live cell count at apply time.
	LiveCells int
	// BoundaryShifts counts cut points that moved to rebalance.
	BoundaryShifts int
	// ImbalanceBefore and ImbalanceAfter are max owned count over mean
	// owned count, before and after the cut shift.
	ImbalanceBefore, ImbalanceAfter float64
}

// Apply derives a new partition for m after restructuring and/or to
// rebalance owned-vertex counts, migrating only what changed. d is the
// global mesh's accumulated dirty region (its Cells and the vertex-count
// growth drive re-keying; an empty region is valid and rebalances only).
// weights, when non-nil, sets per-shard target owned-count shares (they
// are normalized; the pressure-driven balancer sheds load by shrinking
// the hot shard's share) and is retained for subsequent calls; nil keeps
// the current shares (uniform unless previously weighted).
//
// The receiver is not modified; untouched *Part values are shared
// between the old and new partition, so the old value must not be used
// for queries afterwards. The caller must hold whatever exclusion
// protects queries (shard.Mesh swaps under its coherence gate).
func (part *Partition) Apply(m *mesh.Mesh, d mesh.DirtyRegion, weights []float64) (*Partition, ApplyStats, error) {
	n := m.NumVertices()
	oldN := len(part.keys)
	grown := n != oldN

	// Without structural dirty information a grown mesh cannot be keyed
	// incrementally (the dirty cell set is unknown — d was taken from the
	// mesh by another consumer), and a shrunk or empty partition has
	// nothing to splice into: fall back to a full re-partition.
	if part.K == 0 || n < oldN || (grown && !d.Structural) {
		opts := Options{RebalanceTol: part.tol}
		if part.tol < 0 {
			opts.RebalanceTol = -1
		}
		k := part.K
		if k == 0 {
			k = 1
		}
		np, err := NewPartition(m, k, opts)
		if err != nil {
			return nil, ApplyStats{}, err
		}
		st := ApplyStats{Full: true, MigratedVerts: n}
		for s := range np.Parts {
			st.Touched = append(st.Touched, s)
		}
		for ci := range m.Cells() {
			if !m.Cells()[ci].Dead {
				st.LiveCells++
			}
		}
		st.MigratedCells = st.LiveCells
		st.ImbalanceBefore, st.ImbalanceAfter = 1, np.imbalance()
		return np, st, nil
	}

	K := part.K
	pos := m.Positions()
	cells := m.Cells()

	// 1. The changed vertex set: everything restructuring created, plus
	// every vertex of a dirty cell (their keys are recomputed — cheap,
	// and it re-anchors vertices whose positions drifted since keying).
	changedMark := make([]bool, n)
	var changed []int32
	addChanged := func(v int32) {
		if !changedMark[v] {
			changedMark[v] = true
			changed = append(changed, v)
		}
	}
	for v := oldN; v < n; v++ {
		addChanged(int32(v))
	}
	dirtyCell := make(map[int32]bool, len(d.Cells))
	for _, ci := range d.Cells {
		if ci < 0 || int(ci) >= len(cells) {
			return nil, ApplyStats{}, fmt.Errorf("shard: dirty cell %d out of range (%d cells)", ci, len(cells))
		}
		dirtyCell[ci] = true
		c := &cells[ci]
		for i := 0; i < c.VertexCount(); i++ {
			addChanged(c.Verts[i])
		}
	}

	// 2. Re-key the changed vertices. The mapper's bounds are fixed at
	// build time and clamp, so drifted or new positions always key.
	keys := make([]uint64, n)
	copy(keys, part.keys)
	for _, v := range changed {
		keys[v] = part.mapper.Index(pos[v])
	}

	// 3. Splice: drop the changed vertices from the retained order and
	// merge them back at their new (key, id) positions — one linear pass.
	slices.SortFunc(changed, func(a, b int32) int { return compareKeyed(keys, a, b) })
	order := make([]int32, 0, n)
	j := 0
	for _, v := range part.order {
		if changedMark[v] {
			continue
		}
		for j < len(changed) && compareKeyed(keys, changed[j], v) < 0 {
			order = append(order, changed[j])
			j++
		}
		order = append(order, v)
	}
	order = append(order, changed[j:]...)

	// 4. Locate the retained cut points in the new order and rebalance if
	// any shard's owned count left its tolerance window.
	idx := make([]int, K+1)
	idx[K] = n
	for s := 1; s < K; s++ {
		c := part.cuts[s]
		idx[s] = sort.Search(n, func(i int) bool {
			v := order[i]
			return keys[v] > c.key || (keys[v] == c.key && v >= c.id)
		})
	}
	for s := 1; s < K; s++ { // keep ranges monotone on degenerate keys
		if idx[s] < idx[s-1] {
			idx[s] = idx[s-1]
		}
	}

	w := weights
	if w == nil {
		w = part.weights
	}
	target := targetShares(w, K, n)
	tol := part.tol
	frozen := tol < 0
	if frozen {
		tol = DefaultRebalanceTol // emergency window when a shard empties
	}
	var st ApplyStats
	st.ImbalanceBefore = imbalanceOf(idx, n, K)
	needShift := false
	for s := 0; s < K; s++ {
		cnt := float64(idx[s+1] - idx[s])
		if cnt == 0 || (!frozen && (cnt > (1+tol)*target[s] || cnt < (1-tol)*target[s])) {
			needShift = true
		}
	}
	if needShift {
		cum := 0.0
		prev := 0
		for s := 1; s < K; s++ {
			cum += target[s-1]
			slack := tol * math.Min(target[s-1], target[s]) / 2
			lo := int(math.Ceil(cum - slack))
			hi := int(math.Floor(cum + slack))
			ni := idx[s]
			if ni < lo {
				ni = lo
			}
			if ni > hi {
				ni = hi
			}
			if min := prev + 1; ni < min {
				ni = min
			}
			if max := n - (K - s); ni > max {
				ni = max
			}
			if ni != idx[s] {
				st.BoundaryShifts++
			}
			idx[s] = ni
			prev = ni
		}
	}
	st.ImbalanceAfter = imbalanceOf(idx, n, K)

	cuts := make([]cutPoint, K)
	for s := 0; s < K; s++ {
		v := order[idx[s]]
		cuts[s] = cutPoint{key: keys[v], id: v}
	}

	// 5. Diff owners. Touched shards are those gaining or losing an owned
	// vertex, plus every (new-)owner of a dirty cell's vertices — the
	// dead cell must leave, and the replacement cells must enter, each
	// such shard's sub-mesh. An untouched shard's sub-mesh, remap tables,
	// ghost set and cut edges are all functions of its owned set and the
	// cells incident to it, none of which changed; a cut edge can only
	// change status if one endpoint's owner changed, and that endpoint's
	// old and new owners are both touched, so cut-edge symmetry survives
	// sharing the untouched shards.
	newOwner := make([]int32, n)
	for s := 0; s < K; s++ {
		for i := idx[s]; i < idx[s+1]; i++ {
			newOwner[order[i]] = int32(s)
		}
	}
	touched := make([]bool, K)
	migratedMark := make([]bool, n)
	for v := 0; v < oldN; v++ {
		if newOwner[v] != part.Owner[v] {
			st.MigratedVerts++
			migratedMark[v] = true
			touched[part.Owner[v]] = true
			touched[newOwner[v]] = true
		}
	}
	for v := oldN; v < n; v++ {
		st.MigratedVerts++
		migratedMark[v] = true
		touched[newOwner[v]] = true
	}
	for ci := range dirtyCell {
		c := &cells[ci]
		for i := 0; i < c.VertexCount(); i++ {
			touched[newOwner[c.Verts[i]]] = true
		}
	}

	// 6. Rebuild the touched shards: bucket their owned vertices and
	// cells in one pass each, count migrated cells along the way.
	ownedBy := make([][]int32, K)
	for s := 0; s < K; s++ {
		if !touched[s] {
			continue
		}
		list := append([]int32(nil), order[idx[s]:idx[s+1]]...)
		slices.Sort(list)
		ownedBy[s] = list
	}
	cellsBy := make([][]int32, K)
	for ci := range cells {
		c := &cells[ci]
		if c.Dead {
			continue
		}
		st.LiveCells++
		moved := dirtyCell[int32(ci)]
		var owners [8]int32
		no := 0
		for i := 0; i < c.VertexCount(); i++ {
			v := c.Verts[i]
			if migratedMark[v] {
				moved = true
			}
			o := newOwner[v]
			dup := false
			for j := 0; j < no; j++ {
				if owners[j] == o {
					dup = true
					break
				}
			}
			if !dup {
				owners[no] = o
				no++
				if touched[o] {
					cellsBy[o] = append(cellsBy[o], int32(ci))
				}
			}
		}
		if moved {
			st.MigratedCells++
		}
	}

	np := &Partition{
		K:       K,
		Parts:   make([]*Part, K),
		Owner:   newOwner,
		LocalID: make([]int32, n),
		keys:    keys,
		order:   order,
		cuts:    cuts,
		mapper:  part.mapper,
		frame:   part.frame,
		tol:     part.tol,
		weights: w,
	}
	for s := 0; s < K; s++ {
		if !touched[s] {
			np.Parts[s] = part.Parts[s]
			continue
		}
		p, err := buildPart(m, np.frame, newOwner, s, ownedBy[s], cellsBy[s])
		if err != nil {
			return nil, ApplyStats{}, err
		}
		p.KeyLo = keys[order[idx[s]]]
		p.KeyHi = keys[order[idx[s+1]-1]] + 1
		np.Parts[s] = p
		st.Touched = append(st.Touched, s)
	}
	for _, p := range np.Parts {
		for l, g := range p.ToGlobal {
			if p.Owned[l] {
				np.LocalID[g] = int32(l)
			}
		}
	}
	np.rebuildGhostRefs()

	// 7. Re-run the partition invariants on every touched shard.
	for _, s := range st.Touched {
		if err := np.validateShard(m, s, nil); err != nil {
			return nil, ApplyStats{}, fmt.Errorf("shard: post-migration invariant violated: %w", err)
		}
	}
	return np, st, nil
}

// targetShares normalizes weights into per-shard owned-count targets.
func targetShares(w []float64, k, n int) []float64 {
	target := make([]float64, k)
	if len(w) != k {
		for s := range target {
			target[s] = float64(n) / float64(k)
		}
		return target
	}
	sum := 0.0
	for _, x := range w {
		if x > 0 {
			sum += x
		}
	}
	if sum <= 0 {
		for s := range target {
			target[s] = float64(n) / float64(k)
		}
		return target
	}
	for s, x := range w {
		if x < 0 {
			x = 0
		}
		target[s] = x / sum * float64(n)
	}
	return target
}

// imbalanceOf is max owned count over mean owned count for the ranges in
// idx.
func imbalanceOf(idx []int, n, k int) float64 {
	if n == 0 || k == 0 {
		return 1
	}
	max := 0
	for s := 0; s < k; s++ {
		if c := idx[s+1] - idx[s]; c > max {
			max = c
		}
	}
	return float64(max) * float64(k) / float64(n)
}

// imbalance is max owned count over mean owned count for the built
// partition.
func (part *Partition) imbalance() float64 {
	if len(part.Owner) == 0 || part.K == 0 {
		return 1
	}
	max := 0
	for _, p := range part.Parts {
		if p.NumOwned > max {
			max = p.NumOwned
		}
	}
	return float64(max) * float64(part.K) / float64(len(part.Owner))
}
