// Package meshio serializes meshes to a compact binary format, so
// generated datasets can be saved once and reloaded by tools and
// monitoring processes instead of being regenerated.
//
// Format (little-endian):
//
//	magic   "OCTM"            4 bytes
//	version uint32            currently 1
//	V       uint64            vertex count
//	C       uint64            cell count
//	pos     V × 3 × float64   positions
//	cells   C × (uint8 type + k × int32 vertex ids), k = 4 or 8
//
// Connectivity (CSR adjacency, faces) is derived, not stored: the builder
// reconstructs it on load, which keeps files small and guarantees the
// loaded mesh satisfies the same invariants as a built one.
package meshio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"octopus/internal/geom"
	"octopus/internal/mesh"
)

var magic = [4]byte{'O', 'C', 'T', 'M'}

// Version is the current format version.
const Version = 1

// Write serializes m to w.
func Write(w io.Writer, m *mesh.Mesh) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var scratch [8]byte
	put32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := bw.Write(scratch[:4])
		return err
	}
	put64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:], v)
		_, err := bw.Write(scratch[:])
		return err
	}
	if err := put32(Version); err != nil {
		return err
	}
	if err := put64(uint64(m.NumVertices())); err != nil {
		return err
	}
	if err := put64(uint64(m.NumCells())); err != nil {
		return err
	}
	for _, p := range m.Positions() {
		for _, f := range [3]float64{p.X, p.Y, p.Z} {
			if err := put64(math.Float64bits(f)); err != nil {
				return err
			}
		}
	}
	for i := range m.Cells() {
		c := &m.Cells()[i]
		if c.Dead {
			continue
		}
		if err := bw.WriteByte(byte(c.Type)); err != nil {
			return err
		}
		for k := 0; k < c.VertexCount(); k++ {
			if err := put32(uint32(c.Verts[k])); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read deserializes a mesh from r, rebuilding connectivity.
func Read(r io.Reader) (*mesh.Mesh, error) {
	br := bufio.NewReader(r)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("meshio: reading magic: %w", err)
	}
	if hdr != magic {
		return nil, fmt.Errorf("meshio: bad magic %q", hdr[:])
	}
	var scratch [8]byte
	get32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	get64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:]), nil
	}
	version, err := get32()
	if err != nil {
		return nil, err
	}
	if version != Version {
		return nil, fmt.Errorf("meshio: unsupported version %d", version)
	}
	nv, err := get64()
	if err != nil {
		return nil, err
	}
	nc, err := get64()
	if err != nil {
		return nil, err
	}
	const maxCount = 1 << 31
	if nv > maxCount || nc > maxCount {
		return nil, fmt.Errorf("meshio: implausible counts V=%d C=%d", nv, nc)
	}

	// The counts are only capacity hints, capped so that memory grows with
	// the bytes actually read rather than with what a header claims.
	const maxHint = 1 << 16
	b := mesh.NewBuilder(int(min(nv, maxHint)), int(min(nc, maxHint)))
	for i := uint64(0); i < nv; i++ {
		var p geom.Vec3
		for axis := 0; axis < 3; axis++ {
			bits, err := get64()
			if err != nil {
				return nil, fmt.Errorf("meshio: vertex %d: %w", i, err)
			}
			f := math.Float64frombits(bits)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("meshio: vertex %d has non-finite coordinate", i)
			}
			switch axis {
			case 0:
				p.X = f
			case 1:
				p.Y = f
			default:
				p.Z = f
			}
		}
		b.AddVertex(p)
	}
	for i := uint64(0); i < nc; i++ {
		kind, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("meshio: cell %d: %w", i, err)
		}
		switch mesh.CellType(kind) {
		case mesh.Tetrahedron:
			var v [4]int32
			for k := range v {
				u, err := get32()
				if err != nil {
					return nil, fmt.Errorf("meshio: cell %d: %w", i, err)
				}
				v[k] = int32(u)
			}
			b.AddTet(v[0], v[1], v[2], v[3])
		case mesh.Hexahedron:
			var v [8]int32
			for k := range v {
				u, err := get32()
				if err != nil {
					return nil, fmt.Errorf("meshio: cell %d: %w", i, err)
				}
				v[k] = int32(u)
			}
			b.AddHex(v)
		default:
			return nil, fmt.Errorf("meshio: cell %d has unknown type %d", i, kind)
		}
	}
	return b.Build()
}

// Save writes m to a file.
func Save(path string, m *mesh.Mesh) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return Write(f, m)
}

// Load reads a mesh from a file.
func Load(path string) (*mesh.Mesh, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
