package dist

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/shard"
)

// Cluster is the serving-side harness: one Server per shard of a
// shard.Mesh partition, plus the control plane that keeps them coherent
// — Deform pushes each step's local position arrays (owned + ghost ring)
// to every server as Publish RPCs, MaintainToHead drives every server's
// maintenance target to the published epoch. Each is one fan-out round:
// the K RPCs are in flight together, so a round costs the slowest
// shard's round trip. Both run over the same transport the router
// queries through, so the ghost exchange crosses the wire in TCP
// deployments.
//
// Cluster implements query.DeformableMesh, so a query.Pipeline can drive
// a distributed engine like a local one; publish failures are latched
// (Deform cannot return one) and surfaced through Err.
//
// The cluster serves a pinned partition generation: the shard.Mesh must
// not be restructured or re-partitioned while served. A restructured
// global mesh is refused, not served: the first Deform that finds a
// structural change in the dirty stream publishes nothing, and that
// Deform and every later one fail with the same error. The control plane
// (Deform, MaintainToHead) is single-goroutine; queries through a Router
// may run concurrently with it.
type Cluster struct {
	sm      *shard.Mesh
	servers []*Server

	rpc   *client // nil until served (or built by NewControlPlane)
	tsrvs []*TCPServer

	epoch   atomic.Uint64
	err     atomic.Value // latched control-plane error (Deform)
	refused error        // sticky: the global mesh was restructured

	// Publish scratch, reused across steps so the per-step hot path
	// allocates nothing: the full-publish scatter buffer, one encode
	// buffer per shard (a round's K requests are in flight together),
	// the per-shard delta (local id, position) lists, and the per-vertex
	// replica list. maintainReqs is the Maintain round's requests, built
	// once.
	buf          []geom.Vec3
	enc          [][]byte
	dIDs         [][]int32
	dPos         [][]geom.Vec3
	reps         []shard.Replica
	maintainReqs [][]byte
}

// NewCluster builds one server per shard of sm with engines from
// factory. The control plane consumes the global mesh's dirty stream to
// publish deltas, and each server's sub-mesh records its own dirt for its
// maintenance target. The servers are not reachable until ServeLoopback
// or ServeTCP.
func NewCluster(sm *shard.Mesh, factory func(*mesh.Mesh) query.ParallelKNNEngine) *Cluster {
	cl := &Cluster{sm: sm, maintainReqs: sameReq(encodeMaintainReq(), len(sm.Partition().Parts))}
	for _, p := range sm.Partition().Parts {
		cl.servers = append(cl.servers, NewServer(p, factory))
	}
	if len(cl.servers) > 0 {
		cl.epoch.Store(cl.sm.Partition().Parts[0].Mesh.Epoch())
	}
	return cl
}

// NewControlPlane returns a Cluster that drives externally served shard
// servers — cmd/shardserver processes — instead of owning them: Deform
// publishes and MaintainToHead fan out over tr to addrs (index = shard
// id, one per shard of sm). The caller's sm must be built from the same
// deterministic dataset and shard count as the servers' (the partition
// is a pure function of both), and the servers must still be at epoch 0.
// Servers returns nil; do not call ServeLoopback/ServeTCP.
func NewControlPlane(sm *shard.Mesh, tr Transport, addrs []string) *Cluster {
	cl := &Cluster{
		sm:           sm,
		rpc:          newClient(tr, addrs, controlPolicy, 1),
		maintainReqs: sameReq(encodeMaintainReq(), len(sm.Partition().Parts)),
	}
	if parts := sm.Partition().Parts; len(parts) > 0 {
		cl.epoch.Store(parts[0].Mesh.Epoch())
	}
	return cl
}

// Servers returns the per-shard servers, in shard order.
func (cl *Cluster) Servers() []*Server { return cl.servers }

// Mesh returns the sharded mesh the cluster serves.
func (cl *Cluster) Mesh() *shard.Mesh { return cl.sm }

// Addrs returns the serving addresses, in shard order (empty before
// ServeLoopback/ServeTCP).
func (cl *Cluster) Addrs() []string {
	if cl.rpc == nil {
		return nil
	}
	return append([]string(nil), cl.rpc.addrs...)
}

// ServeLoopback registers every server with lb under "shard-<i>" and
// wires the control plane through it. Returns the addresses in shard
// order.
func (cl *Cluster) ServeLoopback(lb *Loopback) []string {
	var addrs []string
	for i, srv := range cl.servers {
		addr := fmt.Sprintf("shard-%d", i)
		lb.Register(addr, srv)
		addrs = append(addrs, addr)
	}
	cl.rpc = newClient(lb, addrs, controlPolicy, 1)
	return addrs
}

// ServeTCP starts one TCP listener per server on 127.0.0.1 (ephemeral
// ports) and wires the control plane through a TCPTransport. Returns the
// addresses in shard order; Close stops the listeners.
func (cl *Cluster) ServeTCP() ([]string, error) {
	var addrs []string
	for i, srv := range cl.servers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("dist: listen for shard %d: %w", i, err)
		}
		ts := NewTCPServer(ln, srv)
		cl.tsrvs = append(cl.tsrvs, ts)
		addrs = append(addrs, ts.Addr())
		go ts.Serve()
	}
	cl.rpc = newClient(&TCPTransport{}, addrs, controlPolicy, 1)
	return addrs, nil
}

// KillShard severs shard i's TCP serving — the listener and its live
// connections — standing in for a killed shard process in the fault
// drills. The shard's state survives but stays unreachable for the
// cluster's lifetime; loopback-served clusters use Loopback.Kill
// instead.
func (cl *Cluster) KillShard(i int) {
	if i >= 0 && i < len(cl.tsrvs) {
		cl.tsrvs[i].Stop()
	}
}

// Close stops the TCP servers (if any), the control plane's per-shard
// workers and its connections. A cluster that has published or
// maintained must be closed: its K control workers, and the connections
// they reach, live until Close.
func (cl *Cluster) Close() {
	for _, ts := range cl.tsrvs {
		ts.Stop()
	}
	cl.tsrvs = nil
	if cl.rpc != nil {
		cl.rpc.close()
	}
}

// Epoch implements query.DeformableMesh: the number of published steps.
func (cl *Cluster) Epoch() uint64 { return cl.epoch.Load() }

// Err returns the latched control-plane error: the first publish or
// maintenance fan-out that failed (nil while the cluster is healthy).
// Deform cannot return an error (the DeformableMesh contract), so a
// pipeline run over a degraded cluster checks this after Run.
func (cl *Cluster) Err() error {
	if v := cl.err.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Deform implements query.DeformableMesh: apply fn to the global
// positions and publish the step to every server. When the global dirty
// stream identifies the movers (the common case — localized steps), the
// publish ships only them: each dirty global id is translated through
// the partition's remap tables into every replica (the owning copy and
// the ghost ring, so the ghost exchange stays exact) and each shard
// receives a PublishDelta of its (local id, position) pairs plus the
// dirty AABB the router-side caches invalidate by. When the dirty
// tracker overflowed, the step falls back to the full local position
// arrays — bigger, never wrong. A structural change (a SplitCell or
// DeleteCell on the global mesh) cannot be published at all: the shards' sub-meshes and remap tables describe the old cells, so
// the step is refused and the cluster stays at its epoch for good (see
// Cluster). The K publishes of a step go out together, and a failing
// shard does not hold the others back: every reachable shard advances,
// and only a failing one stays at the old epoch. The failure latches into
// Err; the router's epoch gate then refuses to merge the shard left
// behind with the advanced ones, so a half-published step degrades to
// skew errors, never to torn results.
//
// All position changes must happen inside fn: the global mesh is
// double-buffered (fn runs against the preloaded back buffer) and the
// delta is the diff fn produced. Mutating Positions() in place between
// steps corrupts the diff baseline and the change would never publish.
func (cl *Cluster) Deform(fn func(pos []geom.Vec3)) {
	if err := cl.DeformErr(fn); err != nil {
		cl.err.CompareAndSwap(nil, err)
	}
}

// DeformErr is Deform with the error returned (the control plane's
// native form). See Deform for the fn contract. On a failed publish the
// error names the first failing shard in shard order; the shards that
// answered are at the new epoch.
func (cl *Cluster) DeformErr(fn func(pos []geom.Vec3)) error {
	if cl.refused != nil {
		return cl.refused
	}
	g := cl.sm.Global()
	g.Deform(fn)
	d := g.TakeDirty()
	if d.Structural {
		cl.refused = fmt.Errorf("dist: the global mesh was restructured (%d cells touched); a Cluster serves a pinned partition and must be rebuilt", len(d.Cells))
		cl.err.CompareAndSwap(nil, cl.refused)
		return cl.refused
	}
	global := g.Positions()
	epoch := cl.epoch.Add(1)
	if d.Overflow {
		return cl.publishFull(epoch, global)
	}
	return cl.publishDeltas(epoch, d, global)
}

// publishFull ships every shard its full local position array (owned +
// ghost ring) as one Publish RPC — the fallback when the movers are not
// enumerable.
func (cl *Cluster) publishFull(epoch uint64, global []geom.Vec3) error {
	parts := cl.sm.Partition().Parts
	enc := cl.encBufs(len(parts))
	for i, p := range parts {
		cl.buf = cl.buf[:0]
		for _, g := range p.ToGlobal {
			cl.buf = append(cl.buf, global[g])
		}
		enc[i] = appendPublishReq(enc[i][:0], publishReq{Epoch: epoch, Pos: cl.buf})
	}
	return cl.publishRound(opPublish, enc, epoch)
}

// publishDeltas translates the global dirty set into per-shard (local
// id, position) lists — every replica of every mover — and ships each
// shard one PublishDelta RPC. Every shard gets one (possibly empty)
// delta: publishes are lockstep and the epoch must advance everywhere.
func (cl *Cluster) publishDeltas(epoch uint64, d mesh.DirtyRegion, global []geom.Vec3) error {
	part := cl.sm.Partition()
	k := len(part.Parts)
	for len(cl.dIDs) < k {
		cl.dIDs = append(cl.dIDs, nil)
		cl.dPos = append(cl.dPos, nil)
	}
	for s := 0; s < k; s++ {
		cl.dIDs[s] = cl.dIDs[s][:0]
		cl.dPos[s] = cl.dPos[s][:0]
	}
	for _, gid := range d.Verts {
		p := global[gid]
		cl.reps = part.AppendReplicas(gid, cl.reps[:0])
		for _, rep := range cl.reps {
			cl.dIDs[rep.Shard] = append(cl.dIDs[rep.Shard], rep.Local)
			cl.dPos[rep.Shard] = append(cl.dPos[rep.Shard], p)
		}
	}
	enc := cl.encBufs(k)
	for s := range enc {
		enc[s] = appendPublishDeltaReq(enc[s][:0], publishDeltaReq{
			Epoch: epoch, Box: d.Box, IDs: cl.dIDs[s], Pos: cl.dPos[s],
		})
	}
	return cl.publishRound(opPublishDelta, enc, epoch)
}

// encBufs returns the k per-shard encode buffers.
func (cl *Cluster) encBufs(k int) [][]byte {
	for len(cl.enc) < k {
		cl.enc = append(cl.enc, nil)
	}
	return cl.enc[:k]
}

// publishRound sends every shard its encoded publish (full or delta) in
// one fan-out and verifies, in shard order, that each arrived at exactly
// epoch. Every reachable shard advances; the error names the first shard
// that did not.
func (cl *Cluster) publishRound(op byte, reqs [][]byte, epoch uint64) error {
	return cl.fanout(op, reqs, func(i int, resp []byte, err error) error {
		if err != nil {
			return fmt.Errorf("dist: publish epoch %d to shard %d: %w", epoch, i, err)
		}
		e, err := decodeEpochResp(resp)
		if err != nil {
			return err
		}
		if e.Epoch != epoch {
			return fmt.Errorf("dist: shard %d published epoch %d, want %d", i, e.Epoch, epoch)
		}
		return nil
	})
}

// WireStats snapshots the control plane's per-op wire accounting
// (publish and maintain traffic). Safe for concurrent use.
func (cl *Cluster) WireStats() WireStats {
	if cl.rpc == nil {
		return WireStats{}
	}
	return cl.rpc.wire.snapshot()
}

// MaintainToHead drives every server's maintenance target to the
// published head: one Maintain RPC per shard, all K in flight together,
// TargetState.ToHead behind each. Every reachable shard is maintained;
// the error names the first shard that failed. It allocates nothing per
// call once the fan-out's workers run.
func (cl *Cluster) MaintainToHead() error {
	return cl.fanout(opMaintain, cl.maintainReqs, func(i int, resp []byte, err error) error {
		if err != nil {
			return fmt.Errorf("dist: maintain shard %d: %w", i, err)
		}
		_, err = decodeEpochResp(resp)
		return err
	})
}

// errNotServing is every control RPC's error before ServeLoopback or
// ServeTCP.
var errNotServing = errors.New("dist: cluster is not serving (call ServeLoopback or ServeTCP)")

// fanout runs one control round over the cluster's client (see
// client.fanout). Before the cluster serves, the round fails at shard 0
// with errNotServing.
func (cl *Cluster) fanout(op byte, reqs [][]byte, check func(i int, resp []byte, err error) error) error {
	if cl.rpc == nil {
		return check(0, nil, errNotServing)
	}
	return cl.rpc.fanout(op, reqs, check)
}
