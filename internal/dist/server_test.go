package dist

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/shard"
)

// TestServerMetaPairsBoxWithItsEpoch: an opMeta reply must carry the owned
// box of the epoch it names. A publisher alternates two deltas that move
// one owned vertex far out and back, so odd and even epochs have
// different owned boxes; concurrent readers check every reply against
// the box the publisher recorded for that parity. A reply that reads the
// box at one epoch and labels it with the next would be cached by the
// router, which would prune a shard that holds results. Meaningful under
// -race and on more than one processor.
func TestServerMetaPairsBoxWithItsEpoch(t *testing.T) {
	m, err := meshgen.BuildBoxTet(4, 4, 4, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	part, err := shard.NewPartition(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := part.Parts[0]
	srv := NewServer(p, func(sub *mesh.Mesh) query.ParallelKNNEngine { return core.New(sub) })

	v := int32(0)
	for !p.Owned[v] {
		v++
	}
	home := p.Mesh.Position(v)
	away := home.Add(geom.V(100, 0, 0))
	publish := func(epoch uint64) {
		to := home
		if epoch&1 == 1 {
			to = away
		}
		req := encodePublishDeltaReq(publishDeltaReq{
			Epoch: epoch, Box: geom.Box(home, away), IDs: []int32{v}, Pos: []geom.Vec3{to},
		})
		if _, err := srv.Handle(opPublishDelta, req); err != nil {
			t.Errorf("publish %d: %v", epoch, err)
		}
	}
	// The publisher's record: the owned box after an odd and an even step.
	var boxOf [2]geom.AABB
	publish(1)
	sum, _ := p.Summary()
	boxOf[1] = sum.Box
	publish(2)
	sum, _ = p.Summary()
	boxOf[0] = sum.Box
	if boxOf[0] == boxOf[1] {
		t.Fatal("test geometry broken: the two deltas leave the same owned box")
	}

	const steps = 3000
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				b, err := srv.Handle(opMeta, encodeMetaReq())
				if err != nil {
					t.Errorf("meta: %v", err)
					return
				}
				resp, err := decodeMetaResp(b)
				if err != nil {
					t.Errorf("meta reply: %v", err)
					return
				}
				if resp.Sum.Box != boxOf[resp.Epoch&1] {
					t.Errorf("meta reply at epoch %d carries the other epoch's box %v", resp.Epoch, resp.Sum.Box)
					return
				}
			}
		}()
	}
	for e := uint64(3); e < 3+steps; e++ {
		publish(e)
	}
	done.Store(true)
	wg.Wait()
}

// TestServerMetaOccupancyMatchesItsEpoch: an opMeta reply carries exactly
// the summary of the epoch it names — SummaryOf over that epoch's owned
// positions with the partition's frame, bitmap and box both — while full
// and delta publishes land in turn. One owned vertex moves far out of
// the frame and back, so consecutive epochs differ in both halves. A
// reply that labels one epoch's summary with another's number is a pair
// the router would cache and prune a shard by, dropping results.
// Meaningful under -race and on more than one processor.
func TestServerMetaOccupancyMatchesItsEpoch(t *testing.T) {
	m, err := meshgen.BuildBoxTet(4, 4, 4, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	frame := m.Bounds()
	part, err := shard.NewPartition(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := part.Parts[0]
	srv := NewServer(p, func(sub *mesh.Mesh) query.ParallelKNNEngine { return core.New(sub) })

	v := int32(0)
	for !p.Owned[v] {
		v++
	}
	const steps = 2000
	home := p.Mesh.Position(v)
	hist := [][]geom.Vec3{slices.Clone(p.Mesh.Positions())}
	for e := 1; e <= steps; e++ {
		pos := slices.Clone(hist[e-1])
		pos[v] = home
		if e%2 == 1 {
			pos[v] = home.Add(geom.V(100, 0, 0))
		}
		hist = append(hist, pos)
	}
	want := make([]shard.Summary, len(hist))
	for e, pos := range hist {
		want[e] = shard.SummaryOf(frame, pos, p.Owned)
	}
	if want[1].Box == want[2].Box || want[1].Occ == want[2].Occ {
		t.Fatal("test geometry broken: consecutive epochs share a box or a bitmap")
	}

	var done atomic.Bool
	var replies atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				b, err := srv.Handle(opMeta, encodeMetaReq())
				if err != nil {
					t.Errorf("meta: %v", err)
					return
				}
				resp, err := decodeMetaResp(b)
				if err != nil {
					t.Errorf("meta reply: %v", err)
					return
				}
				replies.Add(1)
				if resp.Epoch >= uint64(len(want)) || resp.Sum != want[resp.Epoch] {
					t.Errorf("meta reply at epoch %d: box %v, occupancy %x; want the summary of that epoch",
						resp.Epoch, resp.Sum.Box, resp.Sum.Occ.Bits)
					return
				}
			}
		}()
	}
	for e := uint64(1); e <= steps; e++ {
		var err error
		if e%2 == 0 {
			_, err = srv.Handle(opPublish, encodePublishReq(publishReq{Epoch: e, Pos: hist[e]}))
		} else {
			_, err = srv.Handle(opPublishDelta, encodePublishDeltaReq(publishDeltaReq{
				Epoch: e, Box: geom.Box(home, hist[e][v]), IDs: []int32{v}, Pos: []geom.Vec3{hist[e][v]},
			}))
		}
		if err != nil {
			t.Fatalf("publish %d: %v", e, err)
		}
	}
	done.Store(true)
	wg.Wait()
	if replies.Load() == 0 {
		t.Fatal("no meta reply was checked")
	}
}

// gateMeta holds every Meta request until release is closed, counting
// the requests that arrived.
type gateMeta struct {
	Handler
	arrived atomic.Int64
	release chan struct{}
}

func (g *gateMeta) Handle(op byte, req []byte) ([]byte, error) {
	if op == opMeta {
		g.arrived.Add(1)
		<-g.release
	}
	return g.Handler.Handle(op, req)
}

// TestRouterSharesOneMetaRefresh: queries that find the router's
// metadata stale at the same time — as every in-flight query does right
// after a publish — share one refresh: one Meta RPC per shard, not one
// per query, and every query plans from the same summaries.
func TestRouterSharesOneMetaRefresh(t *testing.T) {
	m, err := meshgen.BuildBoxTet(4, 4, 4, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := shard.NewMesh(m, 2, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return core.New(sub) })
	defer cl.Close()
	lb := NewLoopback()
	gate := &gateMeta{Handler: cl.Servers()[0], release: make(chan struct{})}
	lb.Register("shard-0", gate)
	lb.Register("shard-1", cl.Servers()[1])
	r := NewRouter(lb, []string{"shard-0", "shard-1"}, RetryPolicy{})
	defer r.Close()

	const queries = 8
	sums := make([][]shard.Summary, queries)
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, _, err := r.meta()
			if err != nil {
				t.Errorf("meta: %v", err)
			}
			sums[i] = s
		}()
	}
	for gate.arrived.Load() == 0 {
		runtime.Gosched()
	}
	time.Sleep(20 * time.Millisecond) // let the other queries pile up behind it
	if n := gate.arrived.Load(); n != 1 {
		t.Errorf("%d Meta requests reached shard 0 while one refresh was in flight, want 1", n)
	}
	close(gate.release)
	wg.Wait()
	if n := r.WireStats().Meta.Calls; n != 2 {
		t.Errorf("%d queries sent %d Meta RPCs to 2 shards, want 2", queries, n)
	}
	for i := range sums {
		if len(sums[i]) != 2 || &sums[i][0] != &sums[0][0] {
			t.Fatalf("query %d planned from other summaries than query 0", i)
		}
	}
}

// TestServerPublishesUnderQueriesWithoutSetup: a server over a fresh
// shard.Part — nothing prepared the sub-mesh for live publishes — takes
// full and delta publishes while range and kNN requests are in flight.
// Every publish lands at the epoch it names, and every answer that claims
// epoch e equals the owned brute force over the positions published as e.
// Meaningful under -race: a publish that wrote the array the readers scan
// is a reported race.
func TestServerPublishesUnderQueriesWithoutSetup(t *testing.T) {
	m, err := meshgen.BuildBoxTet(5, 5, 5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	part, err := shard.NewPartition(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := part.Parts[0]
	srv := NewServer(p, func(sub *mesh.Mesh) query.ParallelKNNEngine { return core.New(sub) })

	// history[e] is the local position array published as epoch e, stored
	// before the publish that makes e answerable.
	const publishes = 60
	n := p.Mesh.NumVertices()
	history := make([][]geom.Vec3, publishes+1)
	history[0] = slices.Clone(p.Mesh.Positions())
	ownedRange := func(pos []geom.Vec3, q geom.AABB) []int32 {
		var ids []int32
		for l, own := range p.Owned {
			if own && q.Contains(pos[l]) {
				ids = append(ids, p.ToGlobal[l])
			}
		}
		return ids
	}
	ownedKNN := func(pos []geom.Vec3, c geom.Vec3, k int) []knnCand {
		var cands []knnCand
		for l, own := range p.Owned {
			if own {
				cands = append(cands, knnCand{D2: pos[l].Dist2(c), GID: p.ToGlobal[l]})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].D2 != cands[j].D2 {
				return cands[i].D2 < cands[j].D2
			}
			return cands[i].GID < cands[j].GID
		})
		return cands[:min(k, len(cands))]
	}

	var answered atomic.Int64
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			epoch := uint64(0)
			for i := 0; !done.Load(); i++ {
				c := geom.V(0.1+0.2*float64((i+r)%5), 0.1+0.2*float64(i%4), 0.5)
				if i%2 == 0 {
					q := geom.BoxAround(c, 0.35)
					b, err := srv.Handle(opRange, appendRangeReq(nil, rangeReq{Epoch: epoch, Box: q}))
					if err != nil {
						t.Errorf("range: %v", err)
						return
					}
					resp, err := decodeRangeResp(b, nil)
					if err != nil {
						t.Errorf("range reply: %v", err)
						return
					}
					if resp.Skew {
						epoch = resp.Epoch
						continue
					}
					if d := query.Diff(resp.IDs, ownedRange(history[resp.Epoch], q)); resp.Epoch != epoch || d != "" {
						t.Errorf("range asked at epoch %d, answered at %d: %s", epoch, resp.Epoch, d)
						return
					}
				} else {
					// Probe at a vertex's built position: the k-ball is
					// then an edge-connected neighbourhood, the shape
					// OCTOPUS's crawl is exact on.
					c, k := history[0][(13*i+r)%n], 1+i%9
					b, err := srv.Handle(opKNN, appendKNNReq(nil, knnReq{Epoch: epoch, P: c, K: k, Bound2: math.Inf(1)}))
					if err != nil {
						t.Errorf("kNN: %v", err)
						return
					}
					resp, cands, err := decodeKNNCands(b)
					if err != nil {
						t.Errorf("kNN reply: %v", err)
						return
					}
					if resp.Skew {
						epoch = resp.Epoch
						continue
					}
					if want := ownedKNN(history[resp.Epoch], c, k); resp.Epoch != epoch || !slices.Equal(cands, want) {
						t.Errorf("kNN asked at epoch %d, answered at %d: got %v, want %v", epoch, resp.Epoch, cands, want)
						return
					}
				}
				answered.Add(1)
			}
		}(r)
	}

	for e := uint64(1); e <= publishes && !t.Failed(); e++ {
		// Offsets from the built positions, a tenth of the cell size at
		// most: the mesh moves every epoch and never tangles.
		next := slices.Clone(history[e-1])
		wobble := func(l int) geom.Vec3 {
			return history[0][l].Add(geom.V(0.02*math.Sin(float64(l)+float64(e)), 0.02*math.Cos(float64(2*l)-float64(e)), 0.01*float64(e%3)))
		}
		var b []byte
		var err error
		if e%2 == 1 {
			// Full publish: every local vertex moves.
			for l := range next {
				next[l] = wobble(l)
			}
			history[e] = next
			b, err = srv.Handle(opPublish, encodePublishReq(publishReq{Epoch: e, Pos: next}))
		} else {
			// Delta publish: every third local vertex moves.
			req := publishDeltaReq{Epoch: e, Box: geom.EmptyBox()}
			for l := int(e) % 3; l < n; l += 3 {
				to := wobble(l)
				req.Box = req.Box.Extend(next[l]).Extend(to)
				next[l] = to
				req.IDs, req.Pos = append(req.IDs, int32(l)), append(req.Pos, to)
			}
			history[e] = next
			b, err = srv.Handle(opPublishDelta, encodePublishDeltaReq(req))
		}
		if err != nil {
			t.Fatalf("publish %d: %v", e, err)
		}
		if resp, err := decodeEpochResp(b); err != nil || resp.Epoch != e {
			t.Fatalf("publish %d left the shard at epoch %d (%v)", e, resp.Epoch, err)
		}
		// Let answers land on every epoch, so publishes and queries
		// genuinely interleave.
		for target := answered.Load() + 3; answered.Load() < target && !t.Failed(); {
			runtime.Gosched()
		}
	}
	done.Store(true)
	wg.Wait()
	if got := p.Mesh.Epoch(); got != publishes && !t.Failed() {
		t.Fatalf("shard at epoch %d after %d publishes", got, publishes)
	}
}
