package shard

import (
	"fmt"
	"sync"
	"testing"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/query"
)

// These are the regression cases for queries straddling shard cuts — the
// geometry the router's ghost re-seeding must handle: a cut face is
// ordinary surface of each sub-mesh, so a crawl that would have exited a
// shard terminates there and the fan-out re-seeds the continuation in
// the neighbor.

// routerOver shards m K ways with OCTOPUS inner engines.
func routerOver(t *testing.T, m *mesh.Mesh, k int) *Router {
	t.Helper()
	sm, err := NewMesh(m, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return core.New(sub) })
}

// TestBoundaryBoxOnCutPlane queries boxes whose faces lie exactly on
// shard-boundary vertex coordinates: with inclusive AABB bounds, the
// boundary vertices are in the result and owned by exactly one shard, so
// any double-count or ghost leak shows up against brute force.
func TestBoundaryBoxOnCutPlane(t *testing.T) {
	m := buildBoxTet(t, 6, 1.0/6)
	for _, k := range []int{2, 4, 8} {
		r := routerOver(t, m, k)
		cur := r.NewCursor()
		part := r.Mesh().Partition()
		for s, p := range part.Parts {
			// For a handful of cut edges, build boxes whose corner or face
			// passes exactly through the owned and ghost endpoint
			// positions of the severed edge.
			cut := cutEdges(m, part, s)
			for ei := 0; ei < len(cut); ei += 1 + len(cut)/5 {
				e := cut[ei]
				own := p.Mesh.Position(e[0])
				ghost := p.Mesh.Position(e[1])
				boxes := []geom.AABB{
					geom.Box(own, ghost),                            // exactly the edge's AABB
					{Min: own, Max: own},                            // degenerate: single point on the cut
					geom.Box(own, ghost).Grow(1e-9),                 // epsilon over the cut
					geom.Box(m.Bounds().Min, ghost),                 // face exactly through the ghost
					geom.BoxAround(own.Add(ghost).Scale(0.5), 0.26), // straddling the cut center
				}
				for bi, q := range boxes {
					got := cur.Query(q, nil)
					want := query.BruteForce(m, q)
					if d := query.Diff(got, want); d != "" {
						t.Fatalf("K=%d shard %d edge %d box %d: %s (box %v)", k, s, ei, bi, d, q)
					}
				}
			}
		}
		cur.Close()
	}
}

// TestBoundaryKNNSpillsToNeighborShard probes from deep inside one shard
// with k large enough that the k-th neighbor provably lives in another
// shard, and asserts both exactness and that the router actually scanned
// more than the seed shard.
func TestBoundaryKNNSpillsToNeighborShard(t *testing.T) {
	m := buildBoxTet(t, 6, 1.0/6)
	r := routerOver(t, m, 4)
	part := r.Mesh().Partition()
	cur := r.NewCursor().(*Cursor)

	// Probe at an owned vertex incident to a cut edge: its global
	// neighbourhood spans at least two shards, so k = 30 must spill.
	cut := cutEdges(m, part, 0)
	if len(cut) == 0 {
		t.Fatal("expected cut edges at K=4")
	}
	probe := part.Parts[0].Mesh.Position(cut[0][0])
	_, _, q0, s0, _ := r.FanoutStats()
	got := cur.KNN(probe, 30, nil)
	want := query.BruteForceKNN(m, probe, 30)
	if !equalIDs(got, want) {
		t.Fatalf("spill kNN: got %v want %v", got, want)
	}
	_, _, q1, s1, _ := r.FanoutStats()
	if q1 != q0+1 {
		t.Fatalf("knn query count %d -> %d", q0, q1)
	}
	if s1-s0 < 2 {
		t.Fatalf("kNN scanned %d shards, expected the k-th neighbor to spill past the seed shard", s1-s0)
	}
	// The result must span more than one owner shard.
	owners := map[int32]bool{}
	for _, g := range got {
		owners[part.Owner[g]] = true
	}
	if len(owners) < 2 {
		t.Fatalf("30-NN landed in %d shard(s), expected a cross-shard result", len(owners))
	}
	cur.Close()
}

// TestBoundaryRangeInteriorSplitComponent is the case the ghost ring
// exists for: a box fully interior to one connected component that the
// cut split between shards. Neither half touches the component's real
// surface — each shard must enter through the cut faces, which are
// surface only in its sub-mesh.
func TestBoundaryRangeInteriorSplitComponent(t *testing.T) {
	m := buildBoxTet(t, 8, 0.125)
	for _, k := range []int{2, 4, 8} {
		r := routerOver(t, m, k)
		part := r.Mesh().Partition()
		cur := r.NewCursor()

		// An interior box around the mesh centre, strictly inside the
		// global surface, sized to straddle every K=2..8 Hilbert cut of a
		// uniform cube.
		q := geom.BoxAround(geom.V(0.5, 0.5, 0.5), 0.27)
		got := cur.Query(q, nil)
		want := query.BruteForce(m, q)
		if d := query.Diff(got, want); d != "" {
			t.Fatalf("K=%d: %s", k, d)
		}
		owners := map[int32]bool{}
		for _, g := range got {
			owners[part.Owner[g]] = true
		}
		if len(owners) < 2 {
			t.Fatalf("K=%d: interior box landed in %d shard(s); want a genuinely split component", k, len(owners))
		}
		// And none of the result vertices may lie on the global surface —
		// otherwise the case degenerates to ordinary probing.
		onSurface := map[int32]bool{}
		for _, v := range m.SurfaceVertices() {
			onSurface[v] = true
		}
		interior := 0
		for _, g := range got {
			if !onSurface[g] {
				interior++
			}
		}
		if interior == 0 {
			t.Fatalf("K=%d: no interior vertices in the straddling box", k)
		}
		cur.Close()
	}
}

// TestBoundaryFanoutPrunes asserts the other half of the routing
// contract: a box confined to one corner fans out to strictly fewer
// shards than K, and a disjoint box to none.
func TestBoundaryFanoutPrunes(t *testing.T) {
	m := buildBoxTet(t, 6, 1.0/6)
	r := routerOver(t, m, 8)
	cur := r.NewCursor()
	rq0, rf0, _, _, _ := r.FanoutStats()
	if got := cur.Query(geom.BoxAround(geom.V(0.02, 0.02, 0.02), 0.04), nil); len(got) == 0 {
		t.Fatal("corner box found nothing")
	}
	rq1, rf1, _, _, _ := r.FanoutStats()
	if rq1 != rq0+1 || rf1-rf0 >= 8 {
		t.Fatalf("corner box fanned out to %d of 8 shards", rf1-rf0)
	}
	far := geom.BoxAround(geom.V(50, 50, 50), 1)
	if got := cur.Query(far, nil); len(got) != 0 {
		t.Fatalf("disjoint box returned %v", got)
	}
	_, rf2, _, _, _ := r.FanoutStats()
	if rf2 != rf1 {
		t.Fatalf("disjoint box fanned out to %d shards, want 0", rf2-rf1)
	}
	cur.Close()
}

// TestRouterEngineInterface pins the router's query.Engine surface:
// resident Query/KNN, name, and a positive footprint that includes the
// sharding overhead.
func TestRouterEngineInterface(t *testing.T) {
	m := buildBoxTet(t, 4, 0.25)
	r := routerOver(t, m, 3)
	if want := fmt.Sprintf("Sharded[K=3]·%s", core.New(m).Name()); r.Name() != want {
		t.Fatalf("name %q, want %q", r.Name(), want)
	}
	q := geom.BoxAround(geom.V(0.5, 0.5, 0.5), 0.3)
	if d := query.Diff(r.Query(q, nil), query.BruteForce(m, q)); d != "" {
		t.Fatal(d)
	}
	if got, want := r.KNN(geom.V(0.1, 0.2, 0.3), 5, nil), query.BruteForceKNN(m, geom.V(0.1, 0.2, 0.3), 5); !equalIDs(got, want) {
		t.Fatalf("resident KNN %v, want %v", got, want)
	}
	if r.MemoryFootprint() <= 0 {
		t.Fatal("footprint should count remap tables and ghosts")
	}
	if len(r.Engines()) != 3 {
		t.Fatalf("engines %d, want 3", len(r.Engines()))
	}
}

// gate parks the first range query that reaches any shard engine until
// release is closed, so a test can hold a goroutine inside the router.
type gate struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

type gateEngine struct {
	query.ParallelKNNEngine
	g *gate
}

func (e gateEngine) NewCursor() query.Cursor {
	return gateCursor{Cursor: e.ParallelKNNEngine.NewCursor(), g: e.g}
}

type gateCursor struct {
	query.Cursor
	g *gate
}

func (c gateCursor) Query(q geom.AABB, out []int32) []int32 {
	c.g.once.Do(func() { close(c.g.entered) })
	<-c.g.release
	return c.Cursor.Query(q, out)
}

func (c gateCursor) KNN(p geom.Vec3, k int, out []int32) []int32 {
	return c.Cursor.(query.KNNCursor).KNN(p, k, out)
}

// TestRouterResidentCursorRejectsConcurrentEntry pins the resident-path
// contract: while one goroutine is inside Router.Query, a second entry
// panics with the named violation instead of sharing the cursor's
// scratch, and the path works again once the first has left.
func TestRouterResidentCursorRejectsConcurrentEntry(t *testing.T) {
	m := buildBoxTet(t, 4, 0.25)
	sm, err := NewMesh(m, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := &gate{entered: make(chan struct{}), release: make(chan struct{})}
	r := NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine {
		return gateEngine{ParallelKNNEngine: core.New(sub), g: g}
	})
	q := geom.BoxAround(geom.V(0.5, 0.5, 0.5), 0.3)

	first := make(chan []int32)
	go func() { first <- r.Query(q, nil) }()
	<-g.entered // the first goroutine now sits inside the resident cursor

	func() {
		defer func() {
			const want = "shard: resident cursor entered concurrently — use NewCursor per goroutine"
			if got := recover(); got != want {
				t.Errorf("second entry: recovered %v, want panic %q", got, want)
			}
		}()
		r.KNN(geom.V(0.1, 0.2, 0.3), 5, nil)
	}()

	close(g.release)
	if d := query.Diff(<-first, query.BruteForce(m, q)); d != "" {
		t.Fatalf("first entry: %s", d)
	}
	if d := query.Diff(r.Query(q, nil), query.BruteForce(m, q)); d != "" {
		t.Fatalf("after both left: %s", d)
	}
}
