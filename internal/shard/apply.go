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
// and (4) the assembly step NewPartition also ends with (assemble),
// which rebuilds only the shards whose owned set or cell set actually
// changed and shares every other part by reference.

// Apply derives a new partition for m after restructuring, migrating
// only what changed, and adds what it did to st. d is the global mesh's
// accumulated dirty region (its Cells and the vertex-count growth drive
// re-keying; an empty region is valid). The cut points shift only when a
// shard's owned count leaves the rebalanceTol window around the equal
// share n/K. Apply returns the new partition and the rebuilt shards.
//
// The receiver is not modified; untouched *Part values are shared
// between the old and new partition, so the old value must not be used
// for queries afterwards. The caller must hold whatever exclusion
// protects queries (shard.Mesh swaps under its coherence gate).
func (part *Partition) Apply(m *mesh.Mesh, d mesh.DirtyRegion, st *RepartitionStats) (*Partition, []int, error) {
	n := m.NumVertices()
	oldN := len(part.keys)
	grown := n != oldN
	st.Generations++

	// Without structural dirty information a grown mesh cannot be keyed
	// incrementally (the dirty cell set is unknown — d was taken from the
	// mesh by another consumer), and a shrunk or empty partition has
	// nothing to splice into: fall back to a full re-partition.
	if part.K == 0 || n < oldN || (grown && !d.Structural) {
		st.FullRebuilds++
		st.ImbalanceBefore = 1
		return newPartition(m, max(part.K, 1), st)
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
	for _, ci := range d.Cells {
		if ci < 0 || int(ci) >= len(cells) {
			return nil, nil, fmt.Errorf("shard: dirty cell %d out of range (%d cells)", ci, len(cells))
		}
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

	target := float64(n) / float64(K)
	st.ImbalanceBefore = imbalanceOf(idx)
	needShift := false
	for s := 0; s < K; s++ {
		cnt := float64(idx[s+1] - idx[s])
		if cnt > (1+rebalanceTol)*target || cnt < (1-rebalanceTol)*target {
			needShift = true
		}
	}
	if needShift {
		cum := 0.0
		prev := 0
		for s := 1; s < K; s++ {
			cum += target
			slack := rebalanceTol * target / 2
			lo := int(math.Ceil(cum - slack))
			hi := int(math.Floor(cum + slack))
			ni := min(max(idx[s], lo), hi)
			ni = min(max(ni, prev+1), n-(K-s)) // no range may empty
			if ni != idx[s] {
				st.BoundaryShifts++
			}
			idx[s] = ni
			prev = ni
		}
	}

	// 5. Assemble: diff the owners, rebuild the touched shards, share the
	// rest, and re-run the partition invariants on every rebuilt shard.
	np := &Partition{K: K, keys: keys, order: order, mapper: part.mapper, frame: part.frame}
	touched, err := np.assemble(m, idx, part, d.Cells, st)
	if err != nil {
		return nil, nil, err
	}
	for _, s := range touched {
		if err := np.validateShard(m, s, nil); err != nil {
			return nil, nil, fmt.Errorf("shard: post-migration invariant violated: %w", err)
		}
	}
	return np, touched, nil
}
