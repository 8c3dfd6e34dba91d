package meshio

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"runtime"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
)

func roundTrip(t *testing.T, m *mesh.Mesh) *mesh.Mesh {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return got
}

func assertEqualMeshes(t *testing.T, got, want *mesh.Mesh) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumCells() != want.NumCells() {
		t.Fatalf("sizes: got %d/%d, want %d/%d",
			got.NumVertices(), got.NumCells(), want.NumVertices(), want.NumCells())
	}
	for v := int32(0); v < int32(want.NumVertices()); v++ {
		if got.Position(v) != want.Position(v) {
			t.Fatalf("position %d differs", v)
		}
		gn, wn := got.Neighbors(v), want.Neighbors(v)
		if len(gn) != len(wn) {
			t.Fatalf("degree %d differs", v)
		}
		for i := range gn {
			if gn[i] != wn[i] {
				t.Fatalf("adjacency %d differs", v)
			}
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripTet(t *testing.T) {
	m, err := meshgen.BuildBoxTet(4, 3, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualMeshes(t, roundTrip(t, m), m)
}

func TestRoundTripHex(t *testing.T) {
	m, err := meshgen.BuildBoxHex(3, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualMeshes(t, roundTrip(t, m), m)
}

func TestRoundTripNeuron(t *testing.T) {
	m, err := meshgen.Build(meshgen.NeuroL1, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, m)
	assertEqualMeshes(t, got, m)
	// Surface extraction must agree after the round trip.
	gs, ws := got.SurfaceVertices(), m.SurfaceVertices()
	if len(gs) != len(ws) {
		t.Fatalf("surface sizes differ: %d vs %d", len(gs), len(ws))
	}
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatal("surface sets differ")
		}
	}
}

func TestRoundTripDeadCellsSkipped(t *testing.T) {
	m, err := meshgen.BuildBoxTet(2, 2, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DeleteCell(0); err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, m)
	if got.NumCells() != m.NumCells() {
		t.Fatalf("cells: got %d, want %d", got.NumCells(), m.NumCells())
	}
}

func TestSaveLoadFile(t *testing.T) {
	m, err := meshgen.BuildBoxTet(3, 3, 3, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mesh.octm")
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualMeshes(t, got, m)
	if _, err := Load(filepath.Join(t.TempDir(), "missing.octm")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestReadRejectsCorruptInput(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE0000000000000000"),
		"truncated": func() []byte {
			m, _ := meshgen.BuildBoxTet(2, 2, 2, 0.5)
			var buf bytes.Buffer
			_ = Write(&buf, m)
			return buf.Bytes()[:buf.Len()/2]
		}(),
	}
	for name, data := range cases {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// hugeHeader is a 28-byte input whose header claims 2³¹ vertices and 2³¹
// cells — within the format's count limit — followed by half a
// coordinate.
func hugeHeader() []byte {
	data := append([]byte(nil), magic[:]...)
	data = binary.LittleEndian.AppendUint32(data, Version)
	data = binary.LittleEndian.AppendUint64(data, 1<<31)
	data = binary.LittleEndian.AppendUint64(data, 1<<31)
	return append(data, 0, 0, 0, 0)
}

// TestReadHugeHeaderBounded: a header's counts must not size memory up
// front. Pre-sizing from them asked for ≈ 51 GB and died with an
// unrecoverable out-of-memory error instead of returning one.
func TestReadHugeHeaderBounded(t *testing.T) {
	data := hugeHeader()
	if len(data) != 28 {
		t.Fatalf("input is %d bytes, want 28", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("expected an error for a truncated huge mesh")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
		t.Fatalf("Read allocated %d MB for a 28-byte input", grew>>20)
	}
}

// FuzzRead: Read never panics, and a mesh it accepts writes back as
// exactly the bytes it was read from.
func FuzzRead(f *testing.F) {
	tet, _ := meshgen.BuildBoxTet(2, 1, 1, 0.5)
	hex, _ := meshgen.BuildBoxHex(2, 1, 1, 1)
	for _, m := range []*mesh.Mesh{tet, hex} {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(hugeHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("accepted %d bytes but writes back %d different ones", len(data), buf.Len())
		}
	})
}

func TestReadRejectsBadVersionAndNaN(t *testing.T) {
	m, _ := meshgen.BuildBoxTet(1, 1, 1, 1)
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	bad := append([]byte(nil), data...)
	bad[4] = 99 // version
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("expected version error")
	}

	bad = append([]byte(nil), data...)
	// First coordinate starts after magic+version+counts = 4+4+8+8 = 24.
	for i := 24; i < 32; i++ {
		bad[i] = 0xFF // NaN bit pattern
	}
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("expected non-finite coordinate error")
	}
	_ = geom.Vec3{}
}
