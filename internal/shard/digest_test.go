package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
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

// TestBuildDigest builds neuro-l1…l4 (and l5 outside -short), partitions
// each K = 4 ways, and compares the digest of everything the build
// produced with the recorded one.
func TestBuildDigest(t *testing.T) {
	ids := []meshgen.Dataset{meshgen.NeuroL1, meshgen.NeuroL2, meshgen.NeuroL3, meshgen.NeuroL4}
	if !testing.Short() {
		ids = append(ids, meshgen.NeuroL5)
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
// edges, key interval and sub-mesh.
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

	part, err := NewPartition(m, 4, Options{})
	if err != nil {
		return "", err
	}
	d.u64(uint64(part.K))
	d.i32s(part.Owner)
	d.i32s(part.LocalID)
	for _, p := range part.Parts {
		d.i32s(p.ToGlobal)
		for _, own := range p.Owned {
			d.bool(own)
		}
		d.u64(uint64(p.NumOwned))
		d.u64(uint64(len(p.CutEdges)))
		for _, e := range p.CutEdges {
			d.i32s(e[:])
		}
		d.u64(p.KeyLo)
		d.u64(p.KeyHi)
		d.mesh(p.Mesh)
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
