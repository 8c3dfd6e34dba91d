package dist

import (
	"sync"
	"sync/atomic"
	"testing"

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
// box under the server lock and the epoch after it can pair epoch e's box
// with e+1 — the router would cache it and prune a shard that holds
// results. Meaningful under -race and on more than one processor.
func TestServerMetaPairsBoxWithItsEpoch(t *testing.T) {
	m, err := meshgen.BuildBoxTet(4, 4, 4, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	part, err := shard.NewPartition(m, 2, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := part.Parts[0]
	p.Mesh.EnableSnapshots()
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
	boxOf[1] = p.Box()
	publish(2)
	boxOf[0] = p.Box()
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
				if resp.Box != boxOf[resp.Epoch&1] {
					t.Errorf("meta reply at epoch %d carries the other epoch's box %v", resp.Epoch, resp.Box)
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
