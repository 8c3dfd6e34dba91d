package shard

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/sim"
)

// TestShardedParallelCrawlEquivalence checks the routed crawl against
// brute force on a mesh large enough that big boxes make every shard
// engine crawl thousands of vertices and a k=300 probe widens across
// shards: range results equal as sets, kNN slot for slot. (The name is
// kept so the suite's test ids stay stable across PRs.)
func TestShardedParallelCrawlEquivalence(t *testing.T) {
	m := buildBoxTet(t, 20, 1.0/20)
	r := rand.New(rand.NewSource(21))
	diag := m.Bounds().Size().Len()
	for _, k := range []int{2, 4} {
		router := routerOver(t, m, k)
		cur := router.NewCursor()
		for i := 0; i < 12; i++ {
			q := geom.BoxAround(m.Position(int32(r.Intn(m.NumVertices()))), diag*(0.1+0.35*r.Float64()))
			if d := query.Diff(cur.Query(q, nil), query.BruteForce(m, q)); d != "" {
				t.Fatalf("k=%d q#%d: routed vs brute force: %s", k, i, d)
			}
		}
		for i := 0; i < 6; i++ {
			p := m.Position(int32(r.Intn(m.NumVertices())))
			const kq = 300
			got := router.KNN(p, kq, nil)
			want := query.BruteForceKNN(m, p, kq)
			if len(got) != len(want) {
				t.Fatalf("k=%d probe#%d: len %d, brute force %d", k, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("k=%d probe#%d slot %d: got %d, brute force %d", k, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestShardedParallelCrawlBudgetCoverage checks that a router cursor's
// SetBudget, handed to its shard legs, truncates per-shard crawls and
// that the cursor's LastCoverage accumulates the shard reports: a
// budgeted big-box query is a subset of exact and reports Truncated.
func TestShardedParallelCrawlBudgetCoverage(t *testing.T) {
	m := buildBoxTet(t, 14, 1.0/14)
	router := routerOver(t, m, 4)
	cur, ok := router.NewCursor().(*Cursor)
	if !ok {
		t.Fatal("router cursor type")
	}
	q := geom.BoxAround(m.Bounds().Center(), m.Bounds().Size().Len()*0.35)
	exact := cur.Query(q, nil)
	if cov := cur.LastCoverage(); cov.Truncated {
		t.Fatalf("exact query reports truncation: %+v", cov)
	}
	cur.SetBudget(query.CrawlBudget{MaxVisited: int64(len(exact)) / 16})
	trunc := cur.Query(q, nil)
	cov := cur.LastCoverage()
	if !cov.Truncated || cov.Visited <= 0 {
		t.Fatalf("budgeted query coverage %+v", cov)
	}
	if len(trunc) == 0 || len(trunc) >= len(exact) {
		t.Fatalf("truncated size %d, exact %d", len(trunc), len(exact))
	}
	inExact := make(map[int32]bool, len(exact))
	for _, v := range exact {
		inExact[v] = true
	}
	for _, v := range trunc {
		if !inExact[v] {
			t.Fatalf("truncated result %d not in exact result", v)
		}
	}
	cur.SetBudget(query.CrawlBudget{})
	back := cur.Query(q, nil)
	if d := query.Diff(back, append([]int32(nil), exact...)); d != "" {
		t.Fatalf("zero budget not exact: %s", d)
	}
}

// TestCrawlBudgetSurvivesRebalance checks that a router cursor's budget
// reaches the shard engines a re-partition rebuilt: one cell wholly owned
// by each shard is split, so after Resync and Step every shard has a new
// engine, and every leg of a whole-mesh query must still be cut off by
// the budget. Two orders are covered: the budget set before the
// re-partition, and set while every shard's rebuild was still pending
// (no engine to hand it to yet).
func TestCrawlBudgetSurvivesRebalance(t *testing.T) {
	budget := query.CrawlBudget{MaxVisited: 10}
	for _, pending := range []bool{false, true} {
		m := buildBoxTet(t, 14, 1.0/14)
		router := routerOver(t, m, 4)
		cur := router.NewCursor().(*Cursor)
		q := m.Bounds()
		cur.Query(q, nil) // bind every leg to the original engines
		if !pending {
			cur.SetBudget(budget)
		}
		before := slices.Clone(router.execs)
		for _, ci := range cellPerShard(t, router.Mesh()) {
			if _, _, err := m.SplitCell(ci); err != nil {
				t.Fatal(err)
			}
		}
		router.Mesh().Resync()
		for s, x := range router.execs {
			if x == before[s] || x.Engine() != nil {
				t.Fatalf("pending=%v: shard %d has no pending rebuild", pending, s)
			}
		}
		if pending {
			cur.SetBudget(budget)
		}
		router.Step()

		got := cur.Query(q, nil)
		for s := range cur.legs.curs {
			if cov := cur.legs.curs[s].cov; !cov.Truncated || cov.Visited > budget.MaxVisited {
				t.Fatalf("pending=%v: rebuilt shard %d ran outside the budget: %+v", pending, s, cov)
			}
		}
		exact := query.BruteForce(m, q)
		for _, v := range got {
			if _, ok := slices.BinarySearch(exact, v); !ok {
				t.Fatalf("pending=%v: budgeted result %d not in the exact result", pending, v)
			}
		}
	}
}

// cellPerShard returns, for each shard, the first live cell whose
// vertices that shard owns alone.
func cellPerShard(t *testing.T, sm *Mesh) []int {
	t.Helper()
	owner := sm.Partition().Owner
	found := make([]int, sm.K())
	for s := range found {
		found[s] = -1
	}
	for ci, c := range sm.Global().Cells() {
		s := owner[c.Verts[0]]
		wholly := !c.Dead && found[s] < 0
		for i := 1; i < c.VertexCount(); i++ {
			wholly = wholly && owner[c.Verts[i]] == s
		}
		if wholly {
			found[s] = ci
		}
	}
	if slices.Contains(found, -1) {
		t.Fatalf("no cell wholly owned by some shard: %v", found)
	}
	return found
}

// budgetLog is a router whose cursors log the crawl budgets their
// worker hands them. Past the first budgetLogWarmup queries a cursor
// holds its query back until release is closed — once the pipeline's
// controller has installed a budget — so the install lands while both
// workers are querying, and both resume at once.
type budgetLog struct {
	*Router
	release chan struct{}
	served  atomic.Int64
	mu      sync.Mutex
	curs    []*loggedCursor
}

const budgetLogWarmup = 64

func (b *budgetLog) NewCursor() query.Cursor {
	c := &loggedCursor{Cursor: b.Router.NewCursor().(*Cursor), log: b}
	b.mu.Lock()
	b.curs = append(b.curs, c)
	b.mu.Unlock()
	return c
}

// loggedCursor is one worker's cursor. Only that worker touches its
// counters during Run.
type loggedCursor struct {
	*Cursor
	log *budgetLog
	// after counts the queries entered once a budget was installed;
	// handed is the last budget the worker set.
	after  int
	handed query.CrawlBudget
}

func (c *loggedCursor) SetBudget(b query.CrawlBudget) {
	c.handed = b
	c.Cursor.SetBudget(b)
}

func (c *loggedCursor) Query(q geom.AABB, out []int32) []int32 {
	if c.log.served.Add(1) > budgetLogWarmup {
		<-c.log.release
	}
	select {
	case <-c.log.release:
		c.after++
	default:
	}
	return c.Cursor.Query(q, out)
}

// TestSLOCrawlBudgetWithoutDrain runs an SLO pipeline over a K=4 router
// whose target no query can meet, so the controller installs a crawl
// budget while the workers query. The budget is cursor state each worker
// hands its own cursor before its next query: every run must install one
// without a single Exclusive drain, and every answer — budgeted or not —
// must be a subset of brute force at the epoch its trace reports. A
// worker whose cursor entered two queries after the install read the
// budget before the second, so its cursor must hold it. One worker always
// gets there. With two, the tick that installs the budget also shrinks
// the admission window to one query, so whether the held worker runs
// another query or the other one sheds the rest of the queue first is up
// to the scheduler; the two-worker run is the race detector's.
func TestSLOCrawlBudgetWithoutDrain(t *testing.T) {
	for _, workers := range []int{1, 2} {
		const seed = 5
		m := buildBoxTet(t, 10, 1.0/10)
		orig := slices.Clone(m.Positions())
		sm, err := NewMesh(m, 4, Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng := &budgetLog{
			Router:  NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return core.New(sub) }),
			release: make(chan struct{}),
		}
		d := &sim.NoiseDeformer{Amplitude: 0.002, Frequency: 2, Seed: seed}
		queries := make([]geom.AABB, 2000)
		for i := range queries {
			queries[i] = geom.BoxAround(orig[(i*37)%len(orig)], 0.15)
		}
		started := make(chan struct{})
		pl := &query.Pipeline{
			Engine: eng,
			Mesh:   sm,
			Deform: func(step int, pos []geom.Vec3) {
				if step == 0 {
					close(started)
				}
				d.Step(step, pos)
			},
			Workers:       workers,
			MinSteps:      8,
			TargetLatency: time.Nanosecond,
		}
		go func() {
			defer close(eng.release)
			<-started // Run has installed its controller
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
				if pl.SLOStats().CrawlMaxVisited != 0 {
					return
				}
			}
		}()
		report := pl.Run(queries, nil)

		if st := pl.SLOStats(); st.CrawlMaxVisited == 0 {
			t.Fatalf("workers=%d: the controller installed no crawl budget: %+v", workers, st)
		}
		if n := pl.SchedulerStats().ExclusiveRuns; n != 0 {
			t.Fatalf("workers=%d: %d Exclusive drains; installing a crawl budget must need none", workers, n)
		}
		handoffs := 0
		for w, c := range eng.curs {
			if c.after >= 2 {
				if c.handed.MaxVisited == 0 {
					t.Fatalf("workers=%d: worker %d ran %d queries after the install but was never handed the budget", workers, w, c.after)
				}
				handoffs++
			}
		}
		if workers == 1 && handoffs == 0 {
			t.Fatal("the lone worker ran no query after the install")
		}
		// Replay the deformation once, checking each served answer at its
		// epoch in ascending order.
		order := make([]int, 0, len(queries))
		for i, tr := range report.RangeTraces {
			if !tr.Shed {
				order = append(order, i)
			}
		}
		sort.Slice(order, func(a, b int) bool {
			return report.RangeTraces[order[a]].Epoch < report.RangeTraces[order[b]].Epoch
		})
		pos, epoch := orig, uint64(0)
		for _, i := range order {
			tr := report.RangeTraces[i]
			for ; epoch < tr.Epoch; epoch++ {
				d.Step(int(epoch), pos)
			}
			exact := query.ScanPositions(pos, queries[i], nil)
			for _, v := range report.RangeResults[i] {
				if _, ok := slices.BinarySearch(exact, v); !ok {
					t.Fatalf("workers=%d: query %d at epoch %d: %d not in brute force", workers, i, tr.Epoch, v)
				}
			}
		}
		t.Logf("workers=%d: %d of %d queries served, %d workers handed the budget, %d steps",
			workers, len(order), len(queries), handoffs, report.Steps)
	}
}
