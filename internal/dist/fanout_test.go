package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/linearscan"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/shard"
	"octopus/internal/sim"
)

// The control fan-out (DESIGN.md §15): a publish or maintain round sends
// all K RPCs before it waits for any, each shard still sees its control
// RPCs one at a time and in order, a dead shard fails only itself, and
// closing the clients stops every control worker.

// roundHandler wraps a shard server for the fan-out suite. It logs every
// control RPC the shard receives, delays each by a random amount and,
// while barrier is set, holds every publish until all shards have
// received the publish of that epoch: a control plane that waits out one
// shard's reply before sending the next shard's request never gets past
// it.
type roundHandler struct {
	inner Handler
	r     *rounds
	shard int
}

// rounds is the state the K roundHandlers of one cluster share.
type rounds struct {
	k       int
	barrier bool
	mu      sync.Mutex
	rng     *rand.Rand
	arrived map[uint64]int           // epoch → publishes received
	all     map[uint64]chan struct{} // epoch → closed when all k arrived
	log     [][]string               // per shard: the control RPCs in arrival order
}

func newRounds(k int) *rounds {
	return &rounds{
		k: k, barrier: true, rng: rand.New(rand.NewSource(1)),
		arrived: map[uint64]int{}, all: map[uint64]chan struct{}{},
		log: make([][]string, k),
	}
}

// roundWait bounds the barrier: under a one-at-a-time publish sweep the
// first shard's publish would otherwise wait forever.
const roundWait = 5 * time.Second

func (h *roundHandler) Handle(op byte, req []byte) ([]byte, error) {
	r := h.r
	var epoch uint64
	switch op {
	case opPublishDelta:
		q, err := decodePublishDeltaReq(req)
		if err != nil {
			return nil, err
		}
		epoch = q.Epoch
	case opPublish:
		q, err := decodePublishReq(req)
		if err != nil {
			return nil, err
		}
		epoch = q.Epoch
	}
	if epoch == 0 && op != opMaintain {
		return h.inner.Handle(op, req) // a query or Meta: not a control RPC
	}
	r.mu.Lock()
	if epoch != 0 {
		r.log[h.shard] = append(r.log[h.shard], fmt.Sprintf("publish %d", epoch))
	} else {
		r.log[h.shard] = append(r.log[h.shard], "maintain")
	}
	delay := time.Duration(r.rng.Intn(300)) * time.Microsecond
	var all chan struct{}
	if epoch != 0 && r.barrier {
		if all = r.all[epoch]; all == nil {
			all = make(chan struct{})
			r.all[epoch] = all
		}
		if r.arrived[epoch]++; r.arrived[epoch] == r.k {
			close(all)
		}
	}
	r.mu.Unlock()

	if all != nil {
		select {
		case <-all:
		case <-time.After(roundWait):
			return nil, fmt.Errorf("shard %d: the other publishes of epoch %d never arrived", h.shard, epoch)
		}
	}
	time.Sleep(delay)
	return h.inner.Handle(op, req)
}

// fanoutCluster serves a K-shard linear-scan cluster over a 6³ box
// through lb, every server behind a roundHandler, and returns it with a
// router over the same addresses.
func fanoutCluster(t *testing.T, k int) (*Cluster, *Router, *Loopback, *rounds) {
	t.Helper()
	m, err := meshgen.BuildBoxTet(6, 6, 6, 1.0/6)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := shard.NewMesh(m, k, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return linearscan.New(sub) })
	lb := NewLoopback()
	addrs := cl.ServeLoopback(lb)
	r := newRounds(k)
	for i, srv := range cl.Servers() {
		lb.Register(addrs[i], &roundHandler{inner: srv, r: r, shard: i})
	}
	rt := NewRouter(lb, addrs, RetryPolicy{Attempts: 2, Backoff: 100 * time.Microsecond, Deadline: time.Second})
	return cl, rt, lb, r
}

// liveBox returns a query box whose fan-out plan names exactly one shard,
// not avoid.
func liveBox(t *testing.T, cl *Cluster, avoid int) geom.AABB {
	t.Helper()
	sums := cl.Mesh().Partition().Summaries(nil)
	for _, half := range []float64{0.08, 0.04, 0.02, 0.01} {
		for s := range sums {
			if s == avoid {
				continue
			}
			q := geom.BoxAround(sums[s].Box.Center(), half)
			if plan := shard.PlanRangeFanout(sums, q, nil); len(plan) == 1 && plan[0] == s {
				return q
			}
		}
	}
	t.Fatalf("no query box avoids shard %d", avoid)
	return geom.AABB{}
}

// TestDistControlFanout drives ≥ 50 blob steps through a K = 4 loopback
// cluster whose publish handlers only return once every shard has the
// step's publish, so each step must send all four before waiting for
// any. Then it kills one shard: the queries that need it fail honestly,
// the others stay exact, the next step advances every live shard and
// names the dead one, and closing the cluster and the router returns the
// goroutine count to where it was before the cluster existed.
func TestDistControlFanout(t *testing.T) {
	const k, steps, dead = 4, 60, 2
	base := runtime.NumGoroutine()
	cl, rt, lb, r := fanoutCluster(t, k)
	blob := &sim.BlobDeformer{Radius: 0.35, Amplitude: 0.02, Seed: 3}

	for step := 0; step < steps; step++ {
		if err := cl.DeformErr(func(pos []geom.Vec3) { blob.Step(step, pos) }); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := cl.MaintainToHead(); err != nil {
			t.Fatalf("step %d: maintain: %v", step, err)
		}
	}
	// Per shard, every control RPC arrived in issue order: publish e,
	// then its maintain, then publish e+1.
	for s, got := range r.log {
		if len(got) != 2*steps {
			t.Fatalf("shard %d saw %d control RPCs, want %d", s, len(got), 2*steps)
		}
		for i := 0; i < steps; i++ {
			if want := fmt.Sprintf("publish %d", i+1); got[2*i] != want || got[2*i+1] != "maintain" {
				t.Fatalf("shard %d: control RPCs %d..%d are %q, %q; want %q, \"maintain\"",
					s, 2*i, 2*i+1, got[2*i], got[2*i+1], want)
			}
		}
	}

	// The kill. Before the next step the router's view is still whole:
	// a query over the dead shard fails with nothing returned, one that
	// avoids it answers exactly.
	r.mu.Lock()
	r.barrier = false // three of four publishes arrive from now on
	r.mu.Unlock()
	g := cl.Mesh().Global()
	if err := rt.Refresh(); err != nil {
		t.Fatal(err)
	}
	box := liveBox(t, cl, dead)
	lb.Kill(cl.Addrs()[dead])
	ids, _, err := rt.Range(g.Bounds(), nil)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("shard %d", dead)) || len(ids) != 0 {
		t.Fatalf("range over the dead shard: %d ids, err %v; want none and an error naming shard %d", len(ids), err, dead)
	}
	ids, epoch, err := rt.Range(box, nil)
	if err != nil {
		t.Fatalf("range avoiding the dead shard: %v", err)
	}
	if d := query.Diff(ids, query.BruteForce(g, box)); d != "" || epoch != steps {
		t.Fatalf("range avoiding the dead shard at epoch %d (want %d): %s", epoch, steps, d)
	}

	// The torn step: every live shard advances, the error names the dead
	// one, and no query merges the two epochs.
	err = cl.DeformErr(func(pos []geom.Vec3) { blob.Step(steps, pos) })
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("to shard %d:", dead)) {
		t.Fatalf("publish over a dead shard: err %v, want one naming shard %d", err, dead)
	}
	for s, srv := range cl.Servers() {
		want := uint64(steps + 1)
		if s == dead {
			want = steps
		}
		if got := srv.x.Part().Mesh.Epoch(); got != want {
			t.Fatalf("shard %d is at epoch %d after the torn step, want %d", s, got, want)
		}
	}
	if err := cl.MaintainToHead(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("maintain shard %d:", dead)) {
		t.Fatalf("maintain over a dead shard: err %v, want one naming shard %d", err, dead)
	}
	for _, q := range []geom.AABB{g.Bounds(), box} {
		if ids, _, err := rt.Range(q, nil); err == nil || len(ids) != 0 {
			t.Fatalf("range %v across the torn step: %d ids, err %v; want an error and no ids", q, len(ids), err)
		}
	}
	// Revived, the shard answers but at the old epoch: the epoch gate
	// refuses to merge it with the others.
	lb.Revive(cl.Addrs()[dead])
	if ids, _, err := rt.Range(g.Bounds(), nil); !errors.Is(err, ErrEpochSkew) || len(ids) != 0 {
		t.Fatalf("range over a revived shard one step behind: %d ids, err %v; want ErrEpochSkew", len(ids), err)
	}

	rt.Close()
	cl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the cluster", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDistRefreshRacesMeta: explicit Refresh calls race the metadata
// refreshes queries trigger after every publish, while a writer publishes
// and maintains. The identity deformation keeps the positions fixed, so
// every answer that succeeds must equal brute force whatever its epoch;
// the only failure allowed is persistent skew.
func TestDistRefreshRacesMeta(t *testing.T) {
	const k, steps = 4, 50
	cl, rt, _, r := fanoutCluster(t, k)
	defer cl.Close()
	defer rt.Close()
	r.barrier = false
	g := cl.Mesh().Global()
	box := geom.BoxAround(g.Bounds().Center(), 0.3)
	want := query.BruteForce(g, box)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(refresher bool) {
			defer wg.Done()
			var out []int32
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if refresher {
					err = rt.Refresh()
				} else {
					out, _, err = rt.Range(box, out[:0])
					if err == nil {
						if d := query.Diff(append([]int32(nil), out...), want); d != "" {
							err = fmt.Errorf("range during publishes: %s", d)
						}
					}
				}
				if err != nil && !errors.Is(err, ErrEpochSkew) {
					errs <- err
					return
				}
			}
		}(w%2 == 0)
	}
	for step := 0; step < steps; step++ {
		if err := cl.DeformErr(func([]geom.Vec3) {}); err != nil {
			t.Fatal(err)
		}
		if err := cl.MaintainToHead(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// controlStep is the writer step BenchmarkControlStep times: a delta
// publish of a fixed dirty set, then MaintainToHead.
type controlStep struct {
	cl     *Cluster
	d      mesh.DirtyRegion
	global []geom.Vec3
	epoch  uint64
}

func (s *controlStep) run(tb testing.TB) {
	s.epoch++
	if err := s.cl.publishDeltas(s.epoch, s.d, s.global); err != nil {
		tb.Fatal(err)
	}
	if err := s.cl.MaintainToHead(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkControlStep times one writer step over TCP on the K = 4
// cluster of BenchmarkTCPRoundTrip's 24³ box: a delta publish of the
// vertices within a blob at the box's center (343 movers), then
// MaintainToHead. It reports rpcs/op beside ns/op and allocs/op. The
// allocations it reports are the servers' and the wire's, counted over
// the whole process; the control plane's own share must be none, and the
// benchmark fails when the same warmed step, published into sink
// connections, allocates.
func BenchmarkControlStep(b *testing.B) {
	m, err := meshgen.BuildBoxTet(24, 24, 24, 1.0/24)
	if err != nil {
		b.Fatal(err)
	}
	sm, err := shard.NewMesh(m, 4, shard.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cl := NewCluster(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return core.New(sub) })
	if _, err := cl.ServeTCP(); err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	tcp := &controlStep{cl: cl, global: m.Positions()}
	blob := geom.BoxAround(m.Bounds().Center(), 0.15)
	tcp.d.Box = blob
	for v, p := range tcp.global {
		if blob.Contains(p) {
			tcp.d.Verts = append(tcp.d.Verts, int32(v))
		}
	}

	sink := &controlStep{cl: sinkControlPlane(b, sm), d: tcp.d, global: tcp.global}
	for i := 0; i < 3; i++ {
		sink.run(b)
	}
	if avg := testing.AllocsPerRun(20, func() { sink.run(b) }); avg != 0 {
		b.Fatalf("a warmed control step allocates %.1f times, want 0", avg)
	}

	for i := 0; i < 8; i++ {
		tcp.run(b)
	}
	calls := func() int64 { ws := cl.WireStats(); return ws.PublishDelta.Calls + ws.Maintain.Calls }
	before := calls()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tcp.run(b)
	}
	b.StopTimer()
	b.ReportMetric(float64(calls()-before)/float64(b.N), "rpcs/op")
}
