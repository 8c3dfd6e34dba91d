package maintain

import (
	"time"

	"octopus/internal/geom"
	"octopus/internal/mesh"
)

// Shadow is the position copy a snapshot engine answers from, and the
// epoch that copy is consistent with. The octree, kd-tree, LU-Grid,
// LUR-Tree and QU-Trade index the shadow, not the live array, so every
// answer is exact at AnswerEpoch however far the mesh has deformed since.
//
// An engine embeds it and keeps only its own per-vertex move rule, its
// rebuild and its quality trigger; the skeleton around them lives here
// once: the freshness check, the dirty set's normalization, the capture
// of the movers' head positions, the skip of unchanged vertices and the
// epoch advance on completion. AnswerEpoch is promoted, so the embedding
// engine is an EpochReporter.
type Shadow struct {
	// Pos is every vertex's position as the index last saw it. The index
	// agrees with it per vertex at all times, mid-task included; that
	// coherence is what lets a task stop between any two slices.
	Pos []geom.Vec3

	m     *mesh.Mesh
	epoch uint64
}

// NewShadow captures m's current positions and epoch.
func NewShadow(m *mesh.Mesh) Shadow {
	s := Shadow{m: m}
	s.Capture()
	return s
}

// AnswerEpoch implements EpochReporter.
func (s *Shadow) AnswerEpoch() uint64 { return s.epoch }

// Capture re-copies every position at the head epoch, reusing the
// buffer, and returns the copy: the snapshot a rebuild builds over. It is
// safe mid-task, since it leaves no vertex behind.
func (s *Shadow) Capture() []geom.Vec3 {
	s.Pos = append(s.Pos[:0], s.m.Positions()...)
	s.epoch = s.m.Epoch()
	return s.Pos
}

// Rule is a snapshot engine's per-vertex maintenance rule.
type Rule struct {
	// Move brings vertex v's index entry from old, the position the
	// shadow holds for it, to now. It runs only for vertices that moved,
	// and for every vertex the shadow did not hold yet (old is then the
	// zero vector).
	Move func(v int32, old, now geom.Vec3)
	// Done, when set, runs once after the last Move, with the number of
	// vertices the task covered.
	Done func(covered int)
}

// Begin is a snapshot engine's BeginMaintenance. It returns nil when the
// shadow is already at the head, and rebuild as one unbounded slice
// (StepTask) when d is structural, the vertex set no longer matches the
// shadow, or degraded reports the index too worn to patch. Otherwise it
// returns r over d's vertices — every vertex when d cannot be trusted —
// as a resumable, budget-sliced task whose head positions are captured
// now, under the target's write lock.
func (s *Shadow) Begin(d mesh.DirtyRegion, rebuild Stepper, degraded bool, r Rule) Task {
	head := s.m.Epoch()
	if d.Structural || len(s.Pos) != s.m.NumVertices() {
		return StepTask(rebuild)
	}
	if head == s.epoch && d.Empty() {
		return nil
	}
	if degraded {
		return StepTask(rebuild)
	}
	verts := normalizeDirty(d, s.epoch, head)
	return s.relocate(verts, capturePositions(s.m.Positions(), verts), head, r)
}

// Sweep runs r over every vertex to completion against the live
// positions: the paper loop's Step for an engine whose rule absorbs any
// change. In-place writes publish no epoch and record no dirt, so only a
// full comparison finds them. A grown vertex set grows the shadow first.
func (s *Shadow) Sweep(r Rule) {
	s.relocate(nil, s.m.Positions(), s.m.Epoch(), r).Run(0)
}

// relocate builds the task applying r to verts (nil: the full id range),
// whose head positions are now, in order; completing it puts the shadow
// at head.
func (s *Shadow) relocate(verts []int32, now []geom.Vec3, head uint64, r Rule) Task {
	held := len(s.Pos)
	if verts == nil && len(now) > held {
		s.Pos = append(s.Pos, make([]geom.Vec3, len(now)-held)...)
	}
	return &relocationTask{
		verts: verts,
		n:     len(now),
		apply: func(i int, v int32) {
			p := now[i]
			if int(v) < held && s.Pos[v] == p {
				return
			}
			r.Move(v, s.Pos[v], p)
			s.Pos[v] = p
		},
		done: func() {
			if r.Done != nil {
				r.Done(len(now))
			}
			s.epoch = head
		},
	}
}

// sliceStride is how many per-vertex operations a relocationTask applies
// between deadline checks: large enough to amortize the clock read (tens
// of nanoseconds against ~100ns-50us per operation), small enough to
// keep slice overshoot near one stride of work even for the heaviest
// per-vertex updates (R-tree delete + insert).
const sliceStride = 64

// relocationTask is the resumable shape of every localized path: apply a
// per-vertex update over a captured dirty set (or the full id range), a
// bounded number per slice.
type relocationTask struct {
	// verts lists the dirty vertex ids; nil means the full range [0, n).
	verts []int32
	// n is the range length when verts is nil.
	n int
	// apply relocates the i-th vertex of the set; v is its id.
	apply func(i int, v int32)
	// done runs once when the last vertex has been applied.
	done func()

	next int
}

// Run implements Task.
func (t *relocationTask) Run(budget time.Duration) bool {
	n := t.n
	if t.verts != nil {
		n = len(t.verts)
	}
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	for t.next < n {
		hi := min(t.next+sliceStride, n)
		for ; t.next < hi; t.next++ {
			v := int32(t.next)
			if t.verts != nil {
				v = t.verts[t.next]
			}
			t.apply(t.next, v)
		}
		if !deadline.IsZero() && t.next < n && time.Now().After(deadline) {
			return false
		}
	}
	if t.done != nil {
		t.done()
		t.done = nil
	}
	return true
}

// normalizeDirty resolves a dirty region into the vertex set a
// relocation task must apply, relative to the engine's consistent epoch
// and the head it targets. nil means "relocate the full id range" —
// either the region overflowed, or it does not provably cover the whole
// (answerEpoch, head] interval (a dirty source other than the engine's
// own mesh, or none at all), so a partial list cannot be trusted. A
// non-nil empty slice means the epoch advanced with zero movers: the task
// only needs to publish the new answer epoch.
func normalizeDirty(d mesh.DirtyRegion, answerEpoch, head uint64) []int32 {
	if d.Overflow || d.From > answerEpoch || d.To < head {
		return nil
	}
	if d.Verts == nil {
		return []int32{}
	}
	return d.Verts
}

// capturePositions copies the current positions of the given vertices
// out of pos — the capture step of a localized task, taken under the
// target's write lock before any slice runs. verts nil copies everything.
func capturePositions(pos []geom.Vec3, verts []int32) []geom.Vec3 {
	if verts == nil {
		return append([]geom.Vec3(nil), pos...)
	}
	out := make([]geom.Vec3, len(verts))
	for i, v := range verts {
		out[i] = pos[v]
	}
	return out
}
