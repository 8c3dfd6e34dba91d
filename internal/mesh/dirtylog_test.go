package mesh

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"octopus/internal/geom"
)

// FuzzDirtyLog drives a DirtyLog with random appends (one record per
// epoch, or a batch sharing one epoch as a sharded mesh appends), Untrack
// calls and Since reads against an unbounded reference slice. The log
// must stay within DirtyLogCap, answer a retained epoch with exactly the
// reference suffix in order, and report an evicted one incomplete.
func FuzzDirtyLog(f *testing.F) {
	f.Add(uint64(0), []byte{0x04, 0x03, 0x02, 0x05, 0x07, 0x43})
	f.Add(uint64(7), []byte{0xfc, 0xfc, 0xfc, 0xfc, 0xfc, 0x0b, 0x03, 0xff, 0x02, 0x0d, 0x27})
	f.Fuzz(func(t *testing.T, start uint64, ops []byte) {
		start %= 1 << 20
		l := NewDirtyLog(start)
		var ref []DirtyRec
		head, base, untracked := start, start, false
		append1 := func(batch []DirtyRec) {
			if untracked && len(batch) > 0 {
				batch[0].Tracked, batch[0].Box = false, geom.EmptyBox()
				untracked = false
			}
			ref = append(ref, batch...)
			if len(batch) > 0 {
				head = batch[len(batch)-1].Epoch
			}
			if n := len(ref) - DirtyLogCap; n > 0 {
				base = ref[n-1].Epoch
			}
		}
		rec := func(e uint64, tracked bool) DirtyRec {
			return DirtyRec{Epoch: e, Tracked: tracked, Box: geom.BoxAround(geom.V(float64(e), 0, 0), 0.5)}
		}
		check := func(from uint64) {
			got := l.Since(from)
			if got.Head != head {
				t.Fatalf("Since(%d).Head = %d, want %d", from, got.Head, head)
			}
			if from < base {
				if got.Complete || got.Recs != nil {
					t.Fatalf("Since(%d) below the evicted base %d: complete=%v with %d records", from, base, got.Complete, len(got.Recs))
				}
				return
			}
			var want []DirtyRec
			for _, r := range ref {
				if r.Epoch > from {
					want = append(want, r)
				}
			}
			if !got.Complete || !slices.Equal(got.Recs, want) {
				t.Fatalf("Since(%d) = complete %v %v, want %v", from, got.Complete, got.Recs, want)
			}
		}
		for _, b := range ops {
			arg := uint64(b >> 2)
			switch b & 3 {
			case 0: // arg+1 steps, one record each
				batch := make([]DirtyRec, arg+1)
				for i := range batch {
					batch[i] = rec(head+uint64(i)+1, i%3 != 2)
				}
				for _, r := range batch {
					l.Append(r)
				}
				append1(batch)
			case 1: // one step, 1–4 records appended together
				batch := make([]DirtyRec, 1+arg%4)
				for i := range batch {
					batch[i] = rec(head+1, true)
				}
				l.Append(batch...)
				append1(batch)
			case 2:
				l.Untrack()
				untracked = true
			case 3:
				from := uint64(0)
				if back := 7 * arg; head+2 > back {
					from = head + 2 - back
				}
				check(from)
			}
			if len(l.ring) > DirtyLogCap {
				t.Fatalf("log holds %d records, cap %d", len(l.ring), DirtyLogCap)
			}
		}
		for from := base - min(base, 2); from <= head+1; from++ {
			check(from)
		}
	})
}

// epochTrail records a mesh's positions at every epoch it reached.
type epochTrail struct {
	pos map[uint64][]geom.Vec3
}

func (tr *epochTrail) snap(m *Mesh) {
	tr.pos[m.Epoch()] = slices.Clone(m.Positions())
}

// checkCovered asserts that s (the log's answer from epoch e) covers
// every vertex that differs between e and s.Head: an untracked record, or
// tracked boxes containing its position at e and at the head.
func (tr *epochTrail) checkCovered(t *testing.T, e uint64, s DirtySince) {
	t.Helper()
	if !s.Complete {
		t.Fatalf("Since(%d) incomplete with %d epochs in the trail", e, len(tr.pos))
	}
	var boxes []geom.AABB
	for _, r := range s.Recs {
		if r.Epoch <= e || r.Epoch > s.Head {
			t.Fatalf("Since(%d) holds a record at epoch %d (head %d)", e, r.Epoch, s.Head)
		}
		if !r.Tracked {
			return
		}
		boxes = append(boxes, r.Box)
	}
	covered := func(p geom.Vec3) bool {
		for _, b := range boxes {
			if b.Contains(p) {
				return true
			}
		}
		return false
	}
	old, now := tr.pos[e], tr.pos[s.Head]
	for i := range old {
		if old[i] != now[i] && (!covered(old[i]) || !covered(now[i])) {
			t.Fatalf("Since(%d) to head %d: vertex %d moved %v -> %v outside every record box", e, s.Head, i, old[i], now[i])
		}
	}
}

// TestDirtyLogCoversEveryEpoch runs every kind of write — Deform,
// DeformOverwrite, SplitCell, DeleteCell — and checks the log from every
// earlier epoch against the recorded positions. Every restructuring must
// make the first record after it untracked.
func TestDirtyLogCoversEveryEpoch(t *testing.T) {
	m := buildTetGrid(t, 3, 3, 3)
	r := rand.New(rand.NewSource(5))
	tr := &epochTrail{pos: map[uint64][]geom.Vec3{}}
	var restructuredAt []uint64
	tr.snap(m)
	jiggle := func(pos []geom.Vec3, i int) {
		pos[i] = pos[i].Add(geom.V(r.Float64()-0.5, r.Float64()-0.5, r.Float64()-0.5).Scale(0.1))
	}
	liveTet := func() int {
		for {
			if ci := r.Intn(len(m.cells)); !m.cells[ci].Dead {
				return ci
			}
		}
	}
	for step := 0; step < 60; step++ {
		switch op := r.Intn(10); {
		case op < 5:
			m.Deform(func(pos []geom.Vec3) {
				for k := r.Intn(4); k >= 0; k-- {
					jiggle(pos, r.Intn(len(pos)))
				}
			})
		case op < 7:
			cur := m.Positions()
			m.DeformOverwrite(func(pos []geom.Vec3) {
				copy(pos, cur)
				jiggle(pos, r.Intn(len(pos)))
			})
		case op < 9:
			restructuredAt = append(restructuredAt, m.Epoch())
			if _, _, err := m.SplitCell(liveTet()); err != nil {
				t.Fatal(err)
			}
		default:
			restructuredAt = append(restructuredAt, m.Epoch())
			if _, err := m.DeleteCell(liveTet()); err != nil {
				t.Fatal(err)
			}
		}
		tr.snap(m)
	}
	m.Deform(func(pos []geom.Vec3) { jiggle(pos, 0) })
	tr.snap(m)

	head := m.Epoch()
	for e := range tr.pos {
		s := m.DirtySince(e)
		if s.Head != head {
			t.Fatalf("Since(%d).Head = %d, want %d", e, s.Head, head)
		}
		tr.checkCovered(t, e, s)
	}
	all := m.DirtySince(0)
	for _, e := range restructuredAt {
		i := slices.IndexFunc(all.Recs, func(r DirtyRec) bool { return r.Epoch > e })
		if i < 0 || all.Recs[i].Tracked {
			t.Fatalf("the restructuring at epoch %d surfaced as no untracked record", e)
		}
	}
}

// TestDirtyLogConcurrentSince reads the log from another goroutine while
// the writer publishes: every answer must cover the positions between
// the epoch it asked from and the head it reported.
func TestDirtyLogConcurrentSince(t *testing.T) {
	const steps = 240
	m := buildTetGrid(t, 4, 4, 4)
	tr := &epochTrail{pos: map[uint64][]geom.Vec3{}}
	tr.snap(m)
	type read struct {
		from uint64
		s    DirtySince
	}
	var reads []read
	done, started := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(9))
		last, atLast := uint64(0), 0
		for {
			select {
			case <-done:
				return
			default:
			}
			head := m.Epoch()
			if head == last && atLast >= 8 {
				runtime.Gosched() // a few reads per epoch are enough
				continue
			}
			if head != last {
				last, atLast = head, 0
			}
			atLast++
			from := head - min(head, uint64(r.Intn(40)))
			reads = append(reads, read{from, m.DirtySince(from)})
			if len(reads) == 1 {
				close(started)
			}
		}
	}()
	<-started // the writer starts once the reader runs, however they are scheduled
	r := rand.New(rand.NewSource(8))
	n := m.NumVertices()
	for step := 0; step < steps; step++ {
		m.Deform(func(pos []geom.Vec3) {
			for k := 0; k < 3; k++ {
				i := r.Intn(n)
				pos[i] = pos[i].Add(geom.V(0.01, -0.02, 0.005))
			}
		})
		tr.snap(m)
	}
	close(done)
	wg.Wait()
	if len(reads) == 0 {
		t.Fatal("the reader never ran")
	}
	for _, rd := range reads {
		if rd.s.Head < rd.from {
			continue // asked from an epoch the log had not logged yet
		}
		tr.checkCovered(t, rd.from, rd.s)
	}
}
