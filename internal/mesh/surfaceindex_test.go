package mesh

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"octopus/internal/geom"
)

// TestBoundingBoxKernel holds the branch-free rebuild kernel to the plain
// definition of a bounding box over every kind of coordinate it orders by
// integer key: both signs, both zeros, subnormals, huge values and the
// infinities. A NaN coordinate becomes the bound of its own axis and
// leaves the other two alone.
func TestBoundingBoxKernel(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), 1, -1}
	coord := func() float64 {
		switch r.Intn(4) {
		case 0:
			return special[r.Intn(len(special))]
		case 1:
			return math.Ldexp(r.Float64()-0.5, r.Intn(200)-100)
		}
		return 20*r.Float64() - 10
	}
	for trial := 0; trial < 500; trial++ {
		pos := make([]geom.Vec3, 1+r.Intn(ProbeBlock))
		want := geom.EmptyBox()
		for i := range pos {
			pos[i] = geom.V(coord(), coord(), coord())
			want.Min, want.Max = want.Min.Min(pos[i]), want.Max.Max(pos[i])
		}
		if got := appendLeafBoxes(nil, pos)[0]; got != want {
			t.Fatalf("trial %d: leaf box = %v, want %v", trial, got, want)
		}
		// Keys order like the values, and the map is its own inverse.
		a, b := pos[0].X, pos[len(pos)-1].Y
		if (a < b) != (orderedKey(a) < orderedKey(b)) && a != b {
			t.Fatalf("keys misorder %v and %v", a, b)
		}
		if got := fromOrderedKey(orderedKey(a)); math.Float64bits(got) != math.Float64bits(a) {
			t.Fatalf("key round trip: %v -> %v", a, got)
		}

		v := r.Intn(len(pos))
		pos[v].Y = math.NaN()
		got := appendLeafBoxes(nil, pos)[0]
		if got.Min.X != want.Min.X || got.Max.X != want.Max.X || got.Min.Z != want.Min.Z || got.Max.Z != want.Max.Z {
			t.Fatalf("trial %d: a NaN y moved the x or z bounds: %v, want %v", trial, got, want)
		}
		if got.Max.Y == got.Max.Y {
			t.Fatalf("trial %d: a NaN y left the bound %v: it must become the bound, where nothing prunes on it", trial, got.Max.Y)
		}
	}
}

// sameBoxes reports whether two box lists are equal bit for bit, so NaN
// bounds compare.
func sameBoxes(a, b []geom.AABB) bool {
	bits := func(x geom.AABB) [6]uint64 {
		return [6]uint64{math.Float64bits(x.Min.X), math.Float64bits(x.Min.Y), math.Float64bits(x.Min.Z),
			math.Float64bits(x.Max.X), math.Float64bits(x.Max.Y), math.Float64bits(x.Max.Z)}
	}
	return slices.EqualFunc(a, b, func(x, y geom.AABB) bool { return bits(x) == bits(y) })
}

// refitFresh reports whether the boxes s holds for epoch equal boxes
// refit from scratch, into new arrays, over pos.
func refitFresh(s *SurfaceIndex, epoch uint64, pos []geom.Vec3) bool {
	fresh := &SurfaceIndex{slots: s.slots, slotOf: s.slotOf, compStart: s.compStart, compItem: s.compItem}
	fresh.refit(epoch, pos)
	got, want := s.Boxes(epoch), fresh.Boxes(epoch)
	return sameBoxes(got.Leaf, want.Leaf) && sameBoxes(got.Coarse, want.Coarse) && sameBoxes(got.Comp, want.Comp)
}

// TestSurfaceBoxesUnderConcurrentPublish is the property the boxes ride
// with the buffers for, under the race detector: reader goroutines pin an
// epoch and hold the boxes of its parity to a recomputation from the
// pinned buffer while a writer publishes 240 steps, every one of which
// moves every vertex (every fourth puts a NaN into a leaf). A box refit
// under a reader, or read at the wrong parity, shows up as a mismatch or
// a race. It runs on the grid's own layout, whose index gathers through
// the slot order, and on the surface-first one, which reads the buffer
// directly.
func TestSurfaceBoxesUnderConcurrentPublish(t *testing.T) {
	const publishes, readers = 240, 3
	grid := buildTetGrid(t, 12, 12, 12)
	first, err := grid.Renumber(grid.SurfaceFirstPerm())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		m     *Mesh
		dense bool
	}{{"id-array", grid, false}, {"dense", first, true}} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			s := m.SurfaceIndex()
			if s.Dense() != tc.dense || len(s.Boxes(0).Coarse) < 2 {
				t.Fatalf("dense = %v with %d coarse boxes, want %v and at least 2", s.Dense(), len(s.Boxes(0).Coarse), tc.dense)
			}
			var checked atomic.Int64
			var done atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < readers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !done.Load() {
						e, pos := m.PinPositions()
						ok := refitFresh(s, e, pos)
						m.UnpinPositions(e)
						if !ok {
							t.Errorf("epoch %d: the boxes differ from a refit of the pinned buffer", e)
							return
						}
						checked.Add(1)
						runtime.Gosched()
					}
				}()
			}
			r := rand.New(rand.NewSource(3))
			for step := 1; step <= publishes; step++ {
				shift := geom.V(r.Float64()-0.5, r.Float64()-0.5, r.Float64()-0.5)
				move := func(pos []geom.Vec3) {
					for i := range pos {
						pos[i] = pos[i].Add(shift)
					}
					if step%4 == 0 {
						pos[s.slots[r.Intn(len(s.slots))]].Y = math.NaN()
					}
				}
				if step%3 == 0 {
					next := slices.Clone(m.Positions())
					move(next)
					m.DeformOverwrite(func(pos []geom.Vec3) { copy(pos, next) })
				} else {
					m.Deform(move)
				}
				for target := checked.Load() + 1; checked.Load() < target && !t.Failed(); {
					runtime.Gosched()
				}
			}
			done.Store(true)
			wg.Wait()
			if m.Epoch() != publishes || !refitFresh(s, m.Epoch(), m.Positions()) {
				t.Fatalf("after %d publishes (epoch %d) the head's boxes differ from a refit", publishes, m.Epoch())
			}
		})
	}
}
