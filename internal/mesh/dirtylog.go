package mesh

import (
	"sync"

	"octopus/internal/geom"
)

// DirtyLog is the bounded per-epoch record of where a publisher's
// positions changed (DESIGN.md §11), the feed every result cache reads.
// Unlike the TakeDirty accumulator, which maintenance consumes, it is read
// without consuming, so any number of caches follow it from their own
// epochs. A mesh.Mesh, a shard.Mesh and a dist.Server each keep one. It
// holds the newest DirtyLogCap records: a reader further behind gets an
// incomplete answer and must treat its whole interval as untracked. Safe
// for concurrent use.
type DirtyLog struct {
	mu sync.Mutex
	// ring holds the retained records; once full, the oldest is at next.
	ring []DirtyRec
	next int
	// base is the epoch of the newest evicted record (the start epoch
	// before any eviction): Since is complete from base on.
	base, head uint64
	// untracked makes the next appended record untracked.
	untracked bool
}

// DirtyLogCap bounds a DirtyLog. A cache syncing once per step reads one
// record per source; an overrun costs a flush, not correctness.
const DirtyLogCap = 256

// DirtyRec is one published epoch's record (a sharded mesh appends one
// per shard). A tracked record's Box is the union AABB of the old and new
// positions of every vertex that moved; an untracked one (a full publish,
// a restructuring, a re-partition) says only that something changed.
type DirtyRec struct {
	Epoch   uint64
	Tracked bool
	Box     geom.AABB
}

// DirtySince is a DirtyLog's answer for (from, Head]: its records, oldest
// first. Complete is false when the log no longer reaches back to from.
type DirtySince struct {
	Head     uint64
	Complete bool
	Recs     []DirtyRec
}

// NewDirtyLog returns an empty log that starts at epoch head.
func NewDirtyLog(head uint64) *DirtyLog { return &DirtyLog{base: head, head: head} }

// Append records recs, whose epochs must not decrease, and moves the head
// to the last one's epoch. No Since sees only some of them.
func (l *DirtyLog) Append(recs ...DirtyRec) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range recs {
		if l.untracked {
			r.Tracked, r.Box, l.untracked = false, geom.EmptyBox(), false
		}
		if len(l.ring) < DirtyLogCap {
			l.ring = append(l.ring, r)
		} else {
			l.base = l.ring[l.next].Epoch
			l.ring[l.next] = r
			l.next = (l.next + 1) % DirtyLogCap
		}
		l.head = r.Epoch
	}
}

// Untrack makes the next appended record untracked: a change that moves
// no epoch itself (DeleteCell, a re-partition) surfaces with the next
// publish.
func (l *DirtyLog) Untrack() {
	l.mu.Lock()
	l.untracked = true
	l.mu.Unlock()
}

// Since returns the records after epoch from.
func (l *DirtyLog) Since(from uint64) DirtySince {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := DirtySince{Head: l.head, Complete: from >= l.base}
	n, k := len(l.ring), 0
	for s.Complete && k < n && l.ring[(l.next+n-1-k)%n].Epoch > from {
		k++
	}
	if k > 0 {
		s.Recs = make([]DirtyRec, k)
		for i := range s.Recs {
			s.Recs[i] = l.ring[(l.next+n-k+i)%n]
		}
	}
	return s
}
