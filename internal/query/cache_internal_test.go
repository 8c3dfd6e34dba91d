package query

// White-box tests for the ResultCache's FIFO storage discipline: the
// insertion-order slice must not retain its consumed prefix (the old
// `fifo = fifo[1:]` re-slice kept the backing array head alive for the
// life of the server) and dead slots left by invalidations must be
// compacted away, so the slice's length AND capacity stay within a small
// constant of the entry capacity over an unbounded put/evict/invalidate
// stream.

import (
	"testing"

	"octopus/internal/geom"
	"octopus/internal/mesh"
)

func TestResultCacheFIFOMemoryBounded(t *testing.T) {
	const capEntries = 64
	c := NewResultCache(capEntries)

	var maxLen, maxCap, maxHead int
	observe := func() {
		c.mu.Lock()
		if len(c.fifo) > maxLen {
			maxLen = len(c.fifo)
		}
		if cap(c.fifo) > maxCap {
			maxCap = cap(c.fifo)
		}
		if c.head > maxHead {
			maxHead = c.head
		}
		c.mu.Unlock()
	}

	epoch := uint64(0)
	for i := 0; i < 20000; i++ {
		q := geom.BoxAround(geom.Vec3{X: float64(i)}, 0.25)
		c.PutRange(q, []int32{int32(i)}, epoch)
		if i%97 == 96 {
			// Periodically invalidate a stripe of recent entries so dead
			// slots keep appearing mid-FIFO, not just at the head.
			lo, hi := float64(i-40), float64(i)
			box := geom.Box(geom.V(lo, -1, -1), geom.V(hi, 1, 1))
			c.Apply(mesh.DirtySince{Head: epoch + 1, Complete: true,
				Recs: []mesh.DirtyRec{{Epoch: epoch + 1, Tracked: true, Box: box}}})
			epoch++
		}
		observe()
	}

	// The live FIFO region is bounded by 2*entries+slack (the compaction
	// trigger) and the consumed prefix by the head-heavy trigger; the
	// backing capacity follows the length within append's growth factor.
	const lenBound = 6 * capEntries
	if maxLen > lenBound {
		t.Fatalf("fifo length reached %d (head %d); want <= %d — dead slots not compacted", maxLen, maxHead, lenBound)
	}
	if maxCap > 4*lenBound {
		t.Fatalf("fifo backing capacity reached %d; want <= %d — consumed prefix retained", maxCap, 4*lenBound)
	}

	// The cache still behaves: the newest entries are present, totals add
	// up, and eviction still works.
	st := c.Stats()
	if st.Entries == 0 || st.Entries > capEntries {
		t.Fatalf("entries = %d, want (0, %d]", st.Entries, capEntries)
	}
	if st.Puts != 20000 {
		t.Fatalf("puts = %d, want 20000", st.Puts)
	}
}
