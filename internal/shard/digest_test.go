package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"octopus/internal/mesh"
	"octopus/internal/meshgen"
)

// buildDigests pins the mesh-build path: for each dataset, the SHA-256 of
// buildDigest's stream. They were recorded before the comparison sorts and
// the face hash map on that path were replaced by bucketed kernels, so any
// drift in a permutation, a surface list, the CSR adjacency or the K = 4
// partition shows up here.
var buildDigests = map[meshgen.Dataset]string{
	meshgen.NeuroL1: "3ba0d1cfd8744ef6460f62913fcf1b51cd50be182afa6d7ca832a023d95d9ea1",
	meshgen.NeuroL2: "f5e25e162efb95544d62ed709dedb659786af64b9c945d644b3ae00513c7c016",
	meshgen.NeuroL3: "b43a5fa4b366b94a4a2eb29f9c6b9a81af45ddbf7e5b0bd2a1e60f5d2b4e170a",
	meshgen.NeuroL4: "b77ae9b2ad17cde69ebe2ee283ca54f9a9db81eeb8d6666bcafd9a80ea640c7b",
	meshgen.NeuroL5: "6ff04de98f5b69bdc5d22499a7d46921d6506139be901c1c0f8c6f297b071913",
}

// TestBuildDigest builds neuro-l1…l3 (and l4, l5 outside -short),
// partitions each K = 4 ways, and compares the digest of everything the
// build produced with the recorded one.
func TestBuildDigest(t *testing.T) {
	ids := []meshgen.Dataset{meshgen.NeuroL1, meshgen.NeuroL2, meshgen.NeuroL3}
	if !testing.Short() {
		ids = append(ids, meshgen.NeuroL4, meshgen.NeuroL5)
	}
	for _, id := range ids {
		t.Run(string(id), func(t *testing.T) {
			t.Parallel()
			got, err := buildDigest(id)
			if err != nil {
				t.Fatal(err)
			}
			if want := buildDigests[id]; got != want {
				t.Errorf("build digest %s, want %s", got, want)
			}
		})
	}
}

// buildDigest hashes the built dataset — its layout permutations, mesh
// and surface — and its K = 4 partition: every shard's remap tables, cut
// edges and key interval (derived as the partition once stored them) and
// sub-mesh.
func buildDigest(id meshgen.Dataset) (string, error) {
	m, err := meshgen.Build(id, 1)
	if err != nil {
		return "", err
	}
	d := digester{h: sha256.New()}
	d.mesh(m)
	d.i32s(m.HilbertPerm(DefaultHilbertOrder))
	d.i32s(m.SurfaceFirstPerm())
	d.i32s(m.SurfaceFirstHilbertPerm(DefaultHilbertOrder))

	part, err := NewPartition(m, 4)
	if err != nil {
		return "", err
	}
	d.u64(uint64(part.K))
	d.i32s(part.Owner)
	d.i32s(part.LocalID)
	for s, p := range part.Parts {
		d.i32s(p.ToGlobal)
		for _, own := range p.Owned {
			d.bool(own)
		}
		d.u64(uint64(p.NumOwned))
		cut := cutEdges(m, part, s)
		d.u64(uint64(len(cut)))
		for _, e := range cut {
			d.i32s(e[:])
		}
		lo, hi := keyInterval(part, s)
		d.u64(lo)
		d.u64(hi)
		d.mesh(p.Mesh)
	}
	return hex.EncodeToString(d.h.Sum(nil)), nil
}

// applyDigests pins the incremental re-partition path: for each mesh,
// the SHA-256 of applyDigest's stream. They were recorded before
// NewPartition and Apply were folded onto one assembly step, so any drift
// in the cut, the migration, the rebuilt parts or the stats shows up
// here.
var applyDigests = map[string]string{
	"box-10":   "86c3d492e45672be8140ddaa9b5a4ced33d72ab3d4bd707318fe50a2d128cd8b",
	"neuro-l3": "5f30159227ddae6913342cfe997db00dbae296acb8027127b9533100c22f1c1f",
}

// TestApplyDigest drives two restructuring bursts through Resync on a
// K = 4 partition of the box-10 tet mesh (and of neuro-l3 outside
// -short) and compares the digest of both generations with the recorded
// one. The first burst is TestRepartitionStorms' storm; the second grows
// shard 0 by half a share, so the cut points must shift.
func TestApplyDigest(t *testing.T) {
	cases := map[string]func() (*mesh.Mesh, error){
		"box-10": func() (*mesh.Mesh, error) { return meshgen.BuildBoxTet(10, 10, 10, 0.1) },
	}
	if !testing.Short() {
		cases["neuro-l3"] = func() (*mesh.Mesh, error) { return meshgen.Build(meshgen.NeuroL3, 1) }
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, err := build()
			if err != nil {
				t.Fatal(err)
			}
			got, err := applyDigest(m)
			if err != nil {
				t.Fatal(err)
			}
			if want := applyDigests[name]; got != want {
				t.Errorf("apply digest %s, want %s", got, want)
			}
		})
	}
}

// applyDigest re-partitions m's K = 4 partition after each of two bursts
// and hashes, per generation, the accumulated RepartitionStats, the owner
// and local-id tables, and for every part whether it is the previous
// generation's pointer, its remap tables and its sub-mesh.
func applyDigest(m *mesh.Mesh) (string, error) {
	const k = 4
	sm, err := NewMesh(m, k, Options{})
	if err != nil {
		return "", err
	}
	d := digester{h: sha256.New()}
	generation := func() {
		prev := sm.Partition().Parts
		sm.Resync()
		st := sm.RepartitionStats()
		for _, v := range []int{st.Generations, st.FullRebuilds, st.BoundaryShifts,
			st.MigratedVerts, st.MigratedCells, st.TotalCellsSeen, st.RebuiltShards} {
			d.u64(uint64(v))
		}
		d.u64(math.Float64bits(st.ImbalanceBefore))
		d.u64(math.Float64bits(st.ImbalanceAfter))
		part := sm.Partition()
		d.u64(uint64(part.K))
		d.i32s(part.Owner)
		d.i32s(part.LocalID)
		for s, p := range part.Parts {
			d.bool(p == prev[s])
			d.i32s(p.ToGlobal)
			for _, own := range p.Owned {
				d.bool(own)
			}
			d.u64(uint64(p.NumOwned))
			d.mesh(p.Mesh)
		}
	}

	// Burst 1: TestRepartitionStorms' storm for K = 4.
	rng := rand.New(rand.NewSource(42 + k))
	slab := m.NumCells() / 8
	for range 24 {
		_, _, _ = m.SplitCell(rng.Intn(slab))
	}
	for range 4 {
		_, _ = m.DeleteCell(rng.Intn(slab))
	}
	generation()

	// Burst 2: split cells wholly owned by shard 0, in index order, until
	// the mesh grew by half a share, then delete two of shard 0's cells.
	owner := sm.Partition().Owner
	grow := m.NumVertices() / (2 * k)
	var own0 []int
	for ci, c := range m.Cells() {
		if c.Dead {
			continue
		}
		whole := true
		for _, v := range c.Verts[:c.VertexCount()] {
			whole = whole && owner[v] == 0
		}
		if whole {
			own0 = append(own0, ci)
		}
	}
	if len(own0) < grow+2 {
		return "", fmt.Errorf("shard 0 wholly owns %d cells, want %d", len(own0), grow+2)
	}
	for _, ci := range own0[:grow] {
		if _, _, err := m.SplitCell(ci); err != nil {
			return "", err
		}
	}
	for _, ci := range own0[grow : grow+2] {
		if _, err := m.DeleteCell(ci); err != nil {
			return "", err
		}
	}
	shifts := sm.RepartitionStats().BoundaryShifts
	generation()
	if sm.RepartitionStats().BoundaryShifts == shifts {
		return "", fmt.Errorf("burst 2 shifted no cut point")
	}
	return hex.EncodeToString(d.h.Sum(nil)), nil
}

// digester feeds length-prefixed little-endian values into a hash.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) bool(b bool) {
	if b {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *digester) i32s(s []int32) {
	d.u64(uint64(len(s)))
	for _, v := range s {
		binary.LittleEndian.PutUint32(d.buf[:4], uint32(v))
		d.h.Write(d.buf[:4])
	}
}

// mesh hashes positions, CSR adjacency, live cells, the surface list and
// the boundary face count.
func (d *digester) mesh(m *mesh.Mesh) {
	pos := m.Positions()
	d.u64(uint64(len(pos)))
	for _, p := range pos {
		d.u64(math.Float64bits(p.X))
		d.u64(math.Float64bits(p.Y))
		d.u64(math.Float64bits(p.Z))
	}
	for v := range pos {
		d.i32s(m.Neighbors(int32(v)))
	}
	d.u64(uint64(m.NumCells()))
	for i := range m.Cells() {
		c := &m.Cells()[i]
		if c.Dead {
			continue
		}
		d.u64(uint64(c.Type))
		d.i32s(c.Verts[:c.VertexCount()])
	}
	d.i32s(m.SurfaceVertices())
	d.u64(uint64(m.BoundaryFaceCount()))
}
