package dist_test

import (
	"sync"
	"testing"

	"octopus/internal/core"
	"octopus/internal/dist"
	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/shard"
)

// gateEngine parks the first range query that reaches any shard server's
// engine until release is closed, so a test can hold a goroutine inside
// the distributed engine's resident cursor.
type gateEngine struct {
	query.ParallelKNNEngine
	g *gate
}

type gate struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
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

// TestEngineResidentCursorRejectsConcurrentEntry pins the resident-path
// contract on the distributed engine, whose cursor carries merge scratch:
// while one goroutine is inside Engine.Query, a second entry panics with
// the named violation, and the path works again once the first has left.
func TestEngineResidentCursorRejectsConcurrentEntry(t *testing.T) {
	m := buildBoxTet(t, 4, 0.25)
	sm, err := shard.NewMesh(m, 2, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := &gate{entered: make(chan struct{}), release: make(chan struct{})}
	cl := dist.NewCluster(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine {
		return gateEngine{ParallelKNNEngine: core.New(sub), g: g}
	})
	lb := dist.NewLoopback()
	rt := dist.NewRouter(lb, cl.ServeLoopback(lb), dist.RetryPolicy{})
	defer cl.Close()
	defer rt.Close()
	eng := dist.NewEngine(rt, cl)
	q := geom.BoxAround(geom.V(0.5, 0.5, 0.5), 0.3)

	first := make(chan []int32)
	go func() { first <- eng.Query(q, nil) }()
	<-g.entered // the first goroutine now sits inside the resident cursor

	func() {
		defer func() {
			const want = "dist: resident cursor entered concurrently — use NewCursor per goroutine"
			if got := recover(); got != want {
				t.Errorf("second entry: recovered %v, want panic %q", got, want)
			}
		}()
		eng.KNN(geom.V(0.1, 0.2, 0.3), 5, nil)
	}()

	close(g.release)
	if d := query.Diff(<-first, query.BruteForce(m, q)); d != "" {
		t.Fatalf("first entry: %s", d)
	}
	if d := query.Diff(eng.Query(q, nil), query.BruteForce(m, q)); d != "" {
		t.Fatalf("after both left: %s", d)
	}
}
