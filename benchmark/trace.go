package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"octopus/internal/core"
	"octopus/internal/dist"
	"octopus/internal/geom"
	"octopus/internal/query"
)

// Outside-in tracing: the layers are timed by wrapping calls into their
// public functions (dist.Transport/Conn, dist.Handler, query cursors) and
// by reading their public Stats. Spans inside the program are a later
// issue (ROADMAP "latency budget" (a)); nothing here touches the code
// under test. A traced run installs the wrappers and switches them on for
// its traced segments only; a measured run does not install them at all.

// Span names.
const (
	spanQuery  = "client.query" // root: latency start to completion
	spanWait   = "client.wait"  // due time to actual send, when the client was busy
	spanRouter = "dist.router"  // the call into the router (or the engine, in-process)
	spanRPC    = "dist.rpc"     // one query-side Conn.Call
	spanCtlRPC = "dist.ctl_rpc" // one control-plane Conn.Call (publish, maintain)
	spanHandle = "dist.handle"  // one Handler.Handle on a shard server
)

// span is one timed interval. Spans of one query share Req; Parent is
// the span that caused this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Shard  int    `json:"shard"`
	Op     string `json:"op,omitempty"`
	Bytes  int    `json:"bytes,omitempty"` // request + response payload

	opByte byte
	hash   uint64
}

func (s span) dur() int64 { return s.End - s.Start }

// maxClients bounds the in-flight table; the workloads use 2.
const maxClients = 8

// inflightReq is what a client publishes while its query is inside the
// router, so an RPC seen by a wrapped Conn can be attributed to it.
type inflightReq struct {
	req, routerSpan int64
	key             []byte // the query's coordinates as they appear in a request payload
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	on     atomic.Bool
	t0     time.Time
	nextID atomic.Int64

	mu       sync.Mutex
	spans    []span
	opNames  map[byte]string
	learning string

	inflight [maxClients]atomic.Pointer[inflightReq]
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), opNames: make(map[byte]string)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }
func (r *recorder) id() int64  { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	if r.learning != "" {
		if _, known := r.opNames[s.opByte]; !known && s.Name != spanHandle {
			r.opNames[s.opByte] = r.learning
		}
	}
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// learn runs one calibration call and names the op byte it is the first
// to use: the wire's op codes are not part of dist's public surface, so
// they are observed, not hard-coded.
func (r *recorder) learn(name string, call func()) {
	wasOn := r.on.Swap(true)
	r.mu.Lock()
	r.learning = name
	r.mu.Unlock()
	call()
	r.mu.Lock()
	r.learning = ""
	r.mu.Unlock()
	r.on.Store(wasOn)
}

// toggleEvery switches recording on and off every slice, starting off,
// until the returned stop function is called; stop leaves it off.
func (r *recorder) toggleEvery(slice time.Duration) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(slice)
		defer t.Stop()
		for {
			select {
			case <-quit:
				r.on.Store(false)
				return
			case <-t.C:
				r.on.Store(!r.on.Load())
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// take returns the recorded spans with op names filled in and clears the
// buffer.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	for i := range out {
		if out[i].Op == "" && out[i].opByte != 0 {
			out[i].Op = r.opNames[out[i].opByte]
		}
	}
	return out
}

// parentOf attributes an RPC payload to the in-flight client query whose
// coordinates it carries; with a single query in flight there is nothing
// to disambiguate.
func (r *recorder) parentOf(req []byte) (routerSpan, reqID int64) {
	var only *inflightReq
	n := 0
	for i := range r.inflight {
		f := r.inflight[i].Load()
		if f == nil {
			continue
		}
		if bytes.Contains(req, f.key) {
			return f.routerSpan, f.req
		}
		only = f
		n++
	}
	if n == 1 {
		return only.routerSpan, only.req
	}
	return 0, 0
}

// queryKey is the byte string a query's coordinates take inside a request
// payload (IEEE-754 little endian, as dist's codec writes floats).
func queryKey(o *op) []byte {
	vs := []geom.Vec3{o.Box.Min, o.Box.Max}
	if o.KNN {
		vs = []geom.Vec3{o.P}
	}
	b := make([]byte, 0, 48)
	for _, v := range vs {
		for _, f := range []float64{v.X, v.Y, v.Z} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	return b
}

// payloadHash identifies a request payload on both ends of the wire. The
// head of every request (epoch, box or point, k) already tells requests
// apart, so hashing 64 bytes keeps a 500 KB publish cheap to trace.
func payloadHash(op byte, req []byte) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	mix(op)
	for _, b := range req[:min(len(req), 64)] {
		mix(b)
	}
	for n := len(req); n > 0; n >>= 8 {
		mix(byte(n))
	}
	return h
}

// tracedTransport wraps a dist.Transport so every Conn.Call becomes a
// span.
type tracedTransport struct {
	inner   dist.Transport
	rec     *recorder
	name    string // spanRPC or spanCtlRPC
	shardOf map[string]int
}

func (t *tracedTransport) Dial(addr string) (dist.Conn, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &tracedConn{inner: c, t: t, shard: t.shardOf[addr]}, nil
}

type tracedConn struct {
	inner dist.Conn
	t     *tracedTransport
	shard int
}

func (c *tracedConn) Call(op byte, req []byte, deadline time.Time) ([]byte, error) {
	rec := c.t.rec
	if !rec.on.Load() {
		return c.inner.Call(op, req, deadline)
	}
	s := span{Name: c.t.name, ID: rec.id(), Shard: c.shard, opByte: op, hash: payloadHash(op, req)}
	if c.t.name == spanRPC {
		s.Parent, s.Req = rec.parentOf(req)
	}
	s.Start = rec.now()
	resp, err := c.inner.Call(op, req, deadline)
	s.End = rec.now()
	s.Bytes = len(req) + len(resp)
	rec.add(s)
	return resp, err
}

func (c *tracedConn) Close() error { return c.inner.Close() }

// tracedHandler wraps a shard server's dist.Handler.
type tracedHandler struct {
	inner dist.Handler
	rec   *recorder
	shard int
}

func (h *tracedHandler) Handle(op byte, req []byte) ([]byte, error) {
	if !h.rec.on.Load() {
		return h.inner.Handle(op, req)
	}
	s := span{Name: spanHandle, ID: h.rec.id(), Shard: h.shard, opByte: op, hash: payloadHash(op, req)}
	s.Start = h.rec.now()
	resp, err := h.inner.Handle(op, req)
	s.End = h.rec.now()
	s.Bytes = len(req) + len(resp)
	h.rec.add(s)
	return resp, err
}

// matchHandles gives every dist.handle span its RPC as parent: same
// shard, op and payload hash, and the handle interval inside the RPC's.
// It returns the number of handle spans left without one.
func matchHandles(spans []span) (unmatched int) {
	type key struct {
		shard int
		op    byte
		hash  uint64
	}
	rpcs := make(map[key][]int)
	for i, s := range spans {
		if s.Name == spanRPC || s.Name == spanCtlRPC {
			k := key{s.Shard, s.opByte, s.hash}
			rpcs[k] = append(rpcs[k], i)
		}
	}
	used := make(map[int]bool)
	for i := range spans {
		h := &spans[i]
		if h.Name != spanHandle {
			continue
		}
		found := false
		for _, j := range rpcs[key{h.Shard, h.opByte, h.hash}] {
			r := spans[j]
			if !used[j] && r.Start <= h.Start && h.End <= r.End {
				h.Parent, h.Req = r.ID, r.Req
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			unmatched++
		}
	}
	return unmatched
}

// selfNS is a span's self time: its duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfNS(start, end int64, children [][2]int64) int64 {
	cs := make([][2]int64, 0, len(children))
	for _, c := range children {
		c[0], c[1] = max(c[0], start), min(c[1], end)
		if c[1] > c[0] {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i][0] < cs[j][0] })
	covered, edge := int64(0), start
	for _, c := range cs {
		if c[1] <= edge {
			continue
		}
		covered += c[1] - max(c[0], edge)
		edge = c[1]
	}
	return end - start - covered
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// statOctopus is an OCTOPUS engine whose cursors report their core.Stats
// after every call. A shard server keeps its cursors in a pool and never
// closes them, so their statistics never fold into Octopus.Stats; this
// reads them through the cursor's own public Stats instead. Traced runs
// only.
type statOctopus struct {
	*core.Octopus
	rec           *recorder
	mu            sync.Mutex
	total, traced core.Stats // every call; the calls made while rec was on
}

func (e *statOctopus) NewCursor() query.Cursor {
	return &statCursor{Cursor: e.Octopus.NewCursor().(*core.Cursor), eng: e}
}

// cursorStats returns what the engine's cursors have reported so far.
func (e *statOctopus) cursorStats() (total, traced core.Stats) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.total, e.traced
}

type statCursor struct {
	*core.Cursor
	eng  *statOctopus
	last core.Stats
}

func (c *statCursor) Query(q geom.AABB, out []int32) []int32 {
	out = c.Cursor.Query(q, out)
	c.report()
	return out
}

func (c *statCursor) KNN(p geom.Vec3, k int, out []int32) []int32 {
	out = c.Cursor.KNN(p, k, out)
	c.report()
	return out
}

// Close folds the cursor into the engine, which resets its counters.
func (c *statCursor) Close() {
	c.Cursor.Close()
	c.last = core.Stats{}
}

func (c *statCursor) report() {
	now := c.Cursor.Stats()
	d := statsSub(now, c.last)
	c.last = now
	c.eng.mu.Lock()
	c.eng.total.Add(d)
	if c.eng.rec.on.Load() {
		c.eng.traced.Add(d)
	}
	c.eng.mu.Unlock()
}

func statsSub(a, b core.Stats) core.Stats {
	return core.Stats{
		Queries:       a.Queries - b.Queries,
		Results:       a.Results - b.Results,
		SurfaceProbe:  a.SurfaceProbe - b.SurfaceProbe,
		DirectedWalk:  a.DirectedWalk - b.DirectedWalk,
		Crawl:         a.Crawl - b.Crawl,
		ProbeChecked:  a.ProbeChecked - b.ProbeChecked,
		WalkVisited:   a.WalkVisited - b.WalkVisited,
		CrawlVisited:  a.CrawlVisited - b.CrawlVisited,
		DirectedWalks: a.DirectedWalks - b.DirectedWalks,
	}
}
