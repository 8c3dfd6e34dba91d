package dist

import (
	"encoding/binary"
	"testing"
	"time"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/shard"
)

// The publish hot path runs once per simulation step per shard; it must
// not allocate in steady state (the satellite of DESIGN.md §16). The
// mesh-side dirty bookkeeping and the transport's decode side have their
// own budgets — these tests isolate the cluster's encode/scatter work by
// publishing into a sink transport that answers from a reused buffer.

// sinkConn acknowledges a publish with the epoch it carries and any
// other RPC with the last published one, allocation-free after its first
// response.
type sinkConn struct {
	epoch uint64
	buf   []byte
}

func (c *sinkConn) Call(op byte, req []byte, _ time.Time) ([]byte, error) {
	if op == opPublish || op == opPublishDelta {
		c.epoch = binary.LittleEndian.Uint64(req[1:])
	}
	c.buf = append(c.buf[:0], protoVersion)
	c.buf = appendU64(c.buf, c.epoch)
	return c.buf, nil
}

func (c *sinkConn) Close() error { return nil }

type sinkTransport struct{}

func (sinkTransport) Dial(addr string) (Conn, error) { return &sinkConn{}, nil }

func allocTestCluster(t *testing.T, shards int) *Cluster {
	t.Helper()
	m, err := meshgen.BuildBoxTet(6, 6, 6, 1.0/6)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := shard.NewMesh(m, shards, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sinkControlPlane(t, sm)
}

// sinkControlPlane returns a control plane over sm that publishes into
// sink connections, closed when the test ends.
func sinkControlPlane(tb testing.TB, sm *shard.Mesh) *Cluster {
	addrs := make([]string, len(sm.Partition().Parts))
	for i := range addrs {
		addrs[i] = "sink"
	}
	cl := NewControlPlane(sm, sinkTransport{}, addrs)
	tb.Cleanup(cl.Close)
	return cl
}

// TestDistPublishDeltaAllocs: after warm-up, the delta scatter + encode
// path — replica translation, per-shard (id, pos) lists, wire encoding,
// the RPC loop — allocates nothing per step.
func TestDistPublishDeltaAllocs(t *testing.T) {
	cl := allocTestCluster(t, 4)
	g := cl.Mesh().Global()
	global := g.Positions()

	// A synthetic dirty set: a fixed spread of movers, like one blob step.
	var verts []int32
	for v := 0; v < g.NumVertices(); v += 5 {
		verts = append(verts, int32(v))
	}
	d := mesh.DirtyRegion{Box: geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), Verts: verts}

	epoch := uint64(0)
	step := func() {
		epoch++
		if err := cl.publishDeltas(epoch, d, global); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		step() // grow the scratch buffers to steady state
	}
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Fatalf("delta publish allocates %.1f times per step in steady state, want 0", avg)
	}
}

// TestDistPublishFullAllocs: the full-array fallback path reuses its
// scatter and encode buffers the same way.
func TestDistPublishFullAllocs(t *testing.T) {
	cl := allocTestCluster(t, 4)
	global := cl.Mesh().Global().Positions()

	epoch := uint64(0)
	step := func() {
		epoch++
		if err := cl.publishFull(epoch, global); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Fatalf("full publish allocates %.1f times per step in steady state, want 0", avg)
	}
}

// TestDistMaintainToHeadAllocs: the maintain round that follows every
// publish sends the cluster's prebuilt requests through the same fan-out,
// so it allocates nothing per step either.
func TestDistMaintainToHeadAllocs(t *testing.T) {
	cl := allocTestCluster(t, 4)
	step := func() {
		if err := cl.MaintainToHead(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Fatalf("MaintainToHead allocates %.1f times per step in steady state, want 0", avg)
	}
}

// TestDistEncodeAppendAllocs pins the append-style encoders themselves:
// with capacity in place they are pure writes.
func TestDistEncodeAppendAllocs(t *testing.T) {
	q := publishDeltaReq{
		Epoch: 1,
		Box:   geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)),
		IDs:   make([]int32, 256),
		Pos:   make([]geom.Vec3, 256),
	}
	buf := make([]byte, 0, 1+8+48+4+28*len(q.IDs))
	if avg := testing.AllocsPerRun(100, func() {
		buf = appendPublishDeltaReq(buf[:0], q)
	}); avg != 0 {
		t.Fatalf("appendPublishDeltaReq allocates %.1f times with capacity in place, want 0", avg)
	}

	full := publishReq{Epoch: 1, Pos: make([]geom.Vec3, 512)}
	fbuf := make([]byte, 0, 1+8+4+24*len(full.Pos))
	if avg := testing.AllocsPerRun(100, func() {
		fbuf = appendPublishReq(fbuf[:0], full)
	}); avg != 0 {
		t.Fatalf("appendPublishReq allocates %.1f times with capacity in place, want 0", avg)
	}
}
