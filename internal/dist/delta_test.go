package dist_test

import (
	"errors"
	"fmt"
	"testing"

	"octopus/internal/dist"
	"octopus/internal/geom"
	"octopus/internal/linearscan"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/shard"
	"octopus/internal/sim"
)

// The delta-publish suite: localized deformations must travel as
// PublishDelta RPCs (dirty ids + positions only), land bit-equal to the
// full-array publishes they replace, and fall back to full publishes
// exactly when the dirty tracker cannot enumerate the movers.

// blobFor returns a localized deformer sized for the BoxTet meshes the
// suite uses: a fraction of the unit cube moves each step, far under the
// dirty tracker's overflow cap, so every step publishes as a delta.
func blobFor(seed int64) *sim.BlobDeformer {
	return &sim.BlobDeformer{Radius: 0.35, Amplitude: 0.02, Seed: seed}
}

// TestDistDeltaEquivalence: every engine (convex-walk engines excluded:
// a localized blob breaks the convexity their exactness contract
// assumes), both transports for the reference engine, 3 shards, blob
// steps — every step must publish as a delta and the distributed answers
// must stay bit-equal to the in-process router and brute force, both in
// the publish-to-maintenance window and after maintenance.
func TestDistDeltaEquivalence(t *testing.T) {
	const steps = 3
	build := func(t *testing.T) *mesh.Mesh { return buildBoxTet(t, 6, 1.0/6) }
	for _, tr := range transports() {
		for _, ec := range engineCases() {
			if ec.convexOnly {
				continue
			}
			if tr == transportTCP && ec.name != "OCTOPUS" {
				continue // TCP carries identical bytes; one engine spot-checks it
			}
			t.Run(fmt.Sprintf("%s/%s", tr, ec.name), func(t *testing.T) {
				h := newHarness(t, build, 3, ec, tr)
				cur := h.r1.NewCursor()
				defer cur.Close()
				knn := cur.(query.KNNCursor)
				d := blobFor(9)

				for step := 0; step < steps; step++ {
					h.deform(t, d, step)
					epoch := uint64(step + 1)
					queries := equivQueries(h.m1, int64(300+step))
					probes := equivProbes(h.m1, int64(400+step))
					h.checkAll(t, fmt.Sprintf("step %d mid-window", step), cur, knn, queries, probes, epoch)
					h.maintain(t)
					h.checkAll(t, fmt.Sprintf("step %d maintained", step), cur, knn, queries, probes, epoch)
				}

				ws := h.cl.WireStats()
				if want := int64(steps * 3); ws.PublishDelta.Calls != want {
					t.Fatalf("published %d deltas across %d steps x 3 shards, want %d (full publishes: %d)",
						ws.PublishDelta.Calls, steps, want, ws.Publish.Calls)
				}
				if ws.Publish.Calls != 0 {
					t.Fatalf("localized steps fell back to %d full publishes", ws.Publish.Calls)
				}
				if ws.PublishDelta.BytesSent == 0 {
					t.Fatal("wire accounting recorded no delta publish bytes")
				}
			})
		}
	}
}

// TestDistDeltaOverflowFallback: a deformer moving every vertex
// overflows the dirty tracker, so the cluster must fall back to full
// publishes — and a later localized step must return to deltas, with the
// mixed history still answering bit-equal.
func TestDistDeltaOverflowFallback(t *testing.T) {
	build := func(t *testing.T) *mesh.Mesh { return buildBoxTet(t, 6, 1.0/6) }
	h := newHarness(t, build, 3, engineCases()[1], transportLoopback)
	cur := h.r1.NewCursor()
	defer cur.Close()
	knn := cur.(query.KNNCursor)

	noise := &sim.NoiseDeformer{Amplitude: 0.03, Frequency: 2, Seed: 7}
	h.deform(t, noise, 0) // every vertex moves: overflow, full publish
	h.maintain(t)
	if ws := h.cl.WireStats(); ws.Publish.Calls != 3 || ws.PublishDelta.Calls != 0 {
		t.Fatalf("overflowed step published %d full / %d delta, want 3 / 0",
			ws.Publish.Calls, ws.PublishDelta.Calls)
	}

	h.deform(t, blobFor(23), 1) // localized again: back to deltas
	h.maintain(t)
	if ws := h.cl.WireStats(); ws.Publish.Calls != 3 || ws.PublishDelta.Calls != 3 {
		t.Fatalf("localized step after overflow published %d full / %d delta, want 3 / 3",
			ws.Publish.Calls, ws.PublishDelta.Calls)
	}

	queries := equivQueries(h.m1, 501)
	probes := equivProbes(h.m1, 502)
	h.checkAll(t, "mixed full+delta history", cur, knn, queries, probes, 2)
}

// TestDistDeltaEmptyStep: a step that moves nothing still publishes — an
// empty delta to every shard — because epochs advance in lockstep and
// the routers' coherence gate pins them.
func TestDistDeltaEmptyStep(t *testing.T) {
	build := func(t *testing.T) *mesh.Mesh { return buildBoxTet(t, 5, 1.0/5) }
	h := newHarness(t, build, 3, engineCases()[1], transportLoopback)
	cur := h.r1.NewCursor()
	defer cur.Close()
	knn := cur.(query.KNNCursor)

	h.sm1.Deform(func([]geom.Vec3) {})
	if err := h.cl.DeformErr(func([]geom.Vec3) {}); err != nil {
		t.Fatal(err)
	}
	if got := h.cl.Epoch(); got != 1 {
		t.Fatalf("empty step left cluster at epoch %d, want 1", got)
	}
	if ws := h.cl.WireStats(); ws.PublishDelta.Calls != 3 {
		t.Fatalf("empty step published %d deltas, want 3 (one per shard)", ws.PublishDelta.Calls)
	}
	h.maintain(t)
	h.checkAll(t, "after empty step", cur, knn, equivQueries(h.m1, 601), equivProbes(h.m1, 602), 1)
}

// TestClusterRefusesRestructuredMesh: a split cell on the served global
// mesh cannot be published (the shards' sub-meshes and remap tables
// describe the old cells, so the new vertex would reach no shard). The
// next Deform must publish nothing, leave the epoch alone and fail, and
// so must every later one; Err latches the refusal.
func TestClusterRefusesRestructuredMesh(t *testing.T) {
	sm, err := shard.NewMesh(buildBoxTet(t, 4, 0.25), 2, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl := dist.NewCluster(sm, func(m *mesh.Mesh) query.ParallelKNNEngine { return linearscan.New(m) })
	cl.ServeLoopback(dist.NewLoopback())
	t.Cleanup(cl.Close)

	if _, _, err := sm.Global().SplitCell(0); err != nil {
		t.Fatal(err)
	}
	first := cl.DeformErr(func([]geom.Vec3) {})
	if first == nil {
		t.Fatal("a Deform after a restructure published")
	}
	cl.Deform(func([]geom.Vec3) {})
	if err := cl.DeformErr(func([]geom.Vec3) {}); !errors.Is(err, first) {
		t.Fatalf("a later Deform returned %v, want the sticky %v", err, first)
	}
	if err := cl.Err(); !errors.Is(err, first) {
		t.Fatalf("Err() = %v, want %v", err, first)
	}
	if got := cl.Epoch(); got != 0 {
		t.Fatalf("refused steps advanced the cluster to epoch %d", got)
	}
	if ws := cl.WireStats(); ws.Publish.Calls != 0 || ws.PublishDelta.Calls != 0 {
		t.Fatalf("refused steps published %d full / %d delta", ws.Publish.Calls, ws.PublishDelta.Calls)
	}
}
