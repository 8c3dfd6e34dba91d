package dist

import (
	"fmt"
	"sync"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/shard"
)

// Server puts one shard's shard.Exec — the executor the in-process router
// keeps per shard — behind an RPC surface. What it adds belongs to the
// wire: the epoch proof around every query, the kNN top-k cap, the dirty
// log and the codec.
//
// Concurrency: query RPCs (Range, KNN, Meta) may be handled
// concurrently, each with a pooled cursor. Control RPCs (Publish, Maintain)
// serialize with each other under s.mu and must come from a single
// control plane (the Cluster's deform/maintain loop) — publishes overlap
// in-flight queries safely through the sub-mesh's position snapshots,
// which is why every query pins and proves its epoch.
type Server struct {
	x *shard.Exec

	// mu serializes the control plane (Publish, Maintain). Meta takes no
	// lock: shard.Part computes the summary per epoch, safely against
	// publishes.
	mu sync.Mutex

	// dirtyLog holds one record per published epoch with the global box
	// the publish carried: the router-side result cache pulls it via
	// opDirtyLog to invalidate precisely instead of flushing.
	dirtyLog *mesh.DirtyLog

	pool sync.Pool // *serverCursor
}

// serverCursor is the pooled per-request query state: the shard cursor
// plus the response scratch the reply is encoded from (range ids land in
// gids too).
type serverCursor struct {
	shard.ExecCursor
	kb   query.KBest
	gids []int32
	d2s  []float64
}

// NewServer builds a server for p with an engine from factory. Nothing
// has to be prepared: publishes may overlap queries from the first one.
func NewServer(p *shard.Part, factory func(*mesh.Mesh) query.ParallelKNNEngine) *Server {
	return &Server{
		x:        shard.NewExec(p, factory),
		dirtyLog: mesh.NewDirtyLog(p.Mesh.Epoch()),
		pool:     sync.Pool{New: func() any { return new(serverCursor) }},
	}
}

// Engine returns the server's shard engine.
func (s *Server) Engine() query.ParallelKNNEngine { return s.x.Engine() }

// Shard returns the shard index the server owns.
func (s *Server) Shard() int { return s.x.Part().Index }

// Handle executes one decoded-from-the-wire RPC and encodes its
// response. Transports call it; the returned error is an application
// error (reported to the client verbatim, never retried). Every decoder
// copies what it keeps, so req is not retained (the Handler contract).
func (s *Server) Handle(op byte, req []byte) ([]byte, error) {
	switch op {
	case opMeta:
		r := reader{b: req}
		r.checkVersion()
		if err := r.done(); err != nil {
			return nil, err
		}
		return encodeMetaResp(s.meta()), nil
	case opRange:
		q, err := decodeRangeReq(req)
		if err != nil {
			return nil, err
		}
		return s.rangeQuery(q), nil
	case opKNN:
		q, err := decodeKNNReq(req)
		if err != nil {
			return nil, err
		}
		return s.knnQuery(q), nil
	case opPublish:
		q, err := decodePublishReq(req)
		if err != nil {
			return nil, err
		}
		resp, err := s.publish(q)
		if err != nil {
			return nil, err
		}
		return encodeEpochResp(resp), nil
	case opPublishDelta:
		q, err := decodePublishDeltaReq(req)
		if err != nil {
			return nil, err
		}
		resp, err := s.publishDelta(q)
		if err != nil {
			return nil, err
		}
		return encodeEpochResp(resp), nil
	case opDirtyLog:
		q, err := decodeDirtyLogReq(req)
		if err != nil {
			return nil, err
		}
		return encodeDirtyLogResp(s.dirtyLog.Since(q.From)), nil
	case opMaintain:
		r := reader{b: req}
		r.checkVersion()
		if err := r.done(); err != nil {
			return nil, err
		}
		return encodeEpochResp(s.maintain()), nil
	}
	return nil, fmt.Errorf("dist: unknown op %d", op)
}

// meta returns the shard's summary and the epoch it describes. The pair
// comes from one Part.Summary, which pins the epoch's positions and
// labels its pass with that epoch, so a publish landing meanwhile cannot
// pair one epoch's summary with another's number.
func (s *Server) meta() metaResp {
	p := s.x.Part()
	sum, epoch := p.Summary()
	return metaResp{Shard: p.Index, Epoch: epoch, NumOwned: p.NumOwned, Sum: sum}
}

// publish applies one deformation step pushed by the cluster: the full
// local position array (owned + ghosts — the ghost exchange) for the
// next epoch. Publishes must arrive in order; the buffer swap is atomic,
// so overlapping queries keep reading the epoch they pinned.
func (s *Server) publish(q publishReq) (epochResp, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.x.Part()
	if n := p.Mesh.NumVertices(); len(q.Pos) != n {
		return epochResp{}, fmt.Errorf("dist: publish with %d positions for a %d-vertex shard %d",
			len(q.Pos), n, p.Index)
	}
	if cur := p.Mesh.Epoch(); q.Epoch != cur+1 {
		return epochResp{}, fmt.Errorf("dist: out-of-order publish for shard %d: epoch %d after %d",
			p.Index, q.Epoch, cur)
	}
	p.Mesh.DeformOverwrite(func(pos []geom.Vec3) {
		copy(pos, q.Pos)
	})
	// A full publish means nobody enumerated the movers (first step,
	// overflowed or structural dirty): log it untracked so a cache
	// invalidates everything for this epoch.
	s.dirtyLog.Append(mesh.DirtyRec{Epoch: q.Epoch, Box: geom.EmptyBox()})
	return epochResp{Epoch: p.Mesh.Epoch()}, nil
}

// publishDelta applies one deformation step pushed as a delta: only the
// moved local ids (owned and ghost — the cluster already translated the
// global dirty set through the remap tables) and their new positions.
// The sub-mesh's Deform preloads the back buffer from the front, so the
// unmoved vertices carry over bit-exactly and the published state equals
// a full publish of the same step by construction. Same ordering
// contract as publish.
func (s *Server) publishDelta(q publishDeltaReq) (epochResp, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.x.Part()
	n := p.Mesh.NumVertices()
	if len(q.IDs) != len(q.Pos) {
		return epochResp{}, fmt.Errorf("dist: delta publish with %d ids but %d positions for shard %d",
			len(q.IDs), len(q.Pos), p.Index)
	}
	for _, l := range q.IDs {
		if l < 0 || int(l) >= n {
			return epochResp{}, fmt.Errorf("dist: delta publish names local vertex %d of a %d-vertex shard %d",
				l, n, p.Index)
		}
	}
	if cur := p.Mesh.Epoch(); q.Epoch != cur+1 {
		return epochResp{}, fmt.Errorf("dist: out-of-order publish for shard %d: epoch %d after %d",
			p.Index, q.Epoch, cur)
	}
	p.Mesh.Deform(func(pos []geom.Vec3) {
		for i, l := range q.IDs {
			pos[l] = q.Pos[i]
		}
	})
	s.dirtyLog.Append(mesh.DirtyRec{Epoch: q.Epoch, Tracked: true, Box: q.Box})
	return epochResp{Epoch: p.Mesh.Epoch()}, nil
}

// maintain drives the shard's maintenance target to the published head
// (what Router.Step does per shard after its publish).
func (s *Server) maintain() epochResp {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.x.Target().ToHead()
	return epochResp{Epoch: s.x.Part().Mesh.Epoch()}
}

// rangeQuery answers a range request at exactly q.Epoch, or reports
// skew, and returns the encoded reply. Epochs are monotonic, so the head
// reading q.Epoch both before and after the shard executed proves that
// whatever it pinned in between — the engine's cursor, or the owned scan
// — was exactly q.Epoch.
func (s *Server) rangeQuery(q rangeReq) []byte {
	m := s.x.Part().Mesh
	if e := m.Epoch(); e != q.Epoch {
		return encodeRangeResp(rangeResp{Epoch: e, Skew: true})
	}
	c := s.pool.Get().(*serverCursor)
	defer s.pool.Put(c)
	c.gids = s.x.Range(&c.ExecCursor, q.Box, c.gids[:0])
	if e := m.Epoch(); e != q.Epoch {
		return encodeRangeResp(rangeResp{Epoch: e, Skew: true})
	}
	return encodeRangeResp(rangeResp{Epoch: q.Epoch, IDs: c.gids})
}

// knnQuery answers a kNN request at exactly q.Epoch (the same proof as
// rangeQuery): the shard's owned candidates as (d2, global id) pairs,
// found under the router's shipped (Full, Bound2) and capped to the local
// top-k. Capping cannot change the global top-k: a dropped candidate is
// worse than k returned ones under the (dist, id) total order, so it
// could never displace them downstream. Returns the encoded reply.
func (s *Server) knnQuery(q knnReq) []byte {
	m := s.x.Part().Mesh
	if e := m.Epoch(); e != q.Epoch {
		return encodeKNNResp(knnResp{Epoch: e, Skew: true})
	}
	if q.K <= 0 {
		return encodeKNNResp(knnResp{Epoch: q.Epoch})
	}
	c := s.pool.Get().(*serverCursor)
	defer s.pool.Put(c)
	c.kb.Reset(q.K)
	rounds := s.x.KNN(&c.ExecCursor, q.P, q.K, q.Full, q.Bound2, &c.kb)
	if e := m.Epoch(); e != q.Epoch {
		return encodeKNNResp(knnResp{Epoch: e, Skew: true})
	}
	c.gids, c.d2s = c.kb.AppendSortedDists(c.gids[:0], c.d2s[:0])
	return encodeKNNResp(knnResp{Epoch: q.Epoch, Rounds: rounds, GIDs: c.gids, D2s: c.d2s})
}
