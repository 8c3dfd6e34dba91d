package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"strings"
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
	"octopus/internal/workload"
)

// The frame discipline of the TCP transport (DESIGN.md §16): one Write
// per frame on both endpoints, a buffered demux that reassembles frames
// however the stream splits them, reads that allocate only as payload
// bytes arrive, and a round trip whose allocations are the two the
// protocol hands to an owner.

// writeFrame writes one frame to w in a single Write, as both endpoints
// do.
func writeFrame(w io.Writer, tag byte, id uint32, payload []byte) error {
	f := frameWriter{w: w}
	return f.write(tag, id, payload)
}

// readFrame reads one frame from r, with no read-ahead past it.
func readFrame(r io.Reader) (tag byte, id uint32, payload []byte, err error) {
	f := frameReader{r: r}
	return f.next(nil)
}

// countingConn counts the Writes and records the Read sizes on a conn.
type countingConn struct {
	net.Conn
	writes atomic.Int64

	mu    sync.Mutex
	reads []int
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.reads = append(c.reads, n)
	c.mu.Unlock()
	return n, err
}

// TestDistOneWritePerFrame: a query, an error response and a publish
// frame larger than the kept write buffer each cost exactly one Write on
// the client and one on the server.
func TestDistOneWritePerFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan *countingConn, 1)
	served := make(chan struct{})
	go func() {
		defer close(served)
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		cc := &countingConn{Conn: c}
		accepted <- cc
		serveConn(cc, newGateHandler())
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cli := &countingConn{Conn: raw}
	tc := newTCPConn(cli)
	srv := <-accepted
	if srv == nil {
		t.Fatal("accept failed")
	}
	defer func() {
		tc.Close()
		<-served
	}()

	publish := appendPublishReq(nil, publishReq{Epoch: 1, Pos: make([]geom.Vec3, 60000)})
	if len(publish) <= 1<<20 {
		t.Fatalf("publish frame of %d bytes does not exceed 1 MiB", len(publish))
	}
	for i, c := range []struct {
		name    string
		op      byte
		req     []byte
		wantErr bool
	}{
		{"query", opRange, appendRangeReq(nil, rangeReq{Epoch: 3, Box: geom.BoxAround(geom.V(0, 0, 0), 1)}), false},
		{"error", opFail, []byte("nope"), true},
		{"publish", opPublish, publish, false},
	} {
		resp, err := tc.Call(c.op, c.req, time.Now().Add(30*time.Second))
		if c.wantErr {
			if err == nil || IsTransportError(err) {
				t.Fatalf("%s: want an application error, got %v", c.name, err)
			}
		} else if err != nil || !bytes.Equal(resp, c.req) {
			t.Fatalf("%s: echo drifted (%d of %d bytes): %v", c.name, len(resp), len(c.req), err)
		}
		frames := int64(i + 1)
		if got := cli.writes.Load(); got != frames {
			t.Fatalf("%s: client issued %d Writes for %d request frames", c.name, got, frames)
		}
		if got := srv.writes.Load(); got != frames {
			t.Fatalf("%s: server issued %d Writes for %d response frames", c.name, got, frames)
		}
	}
}

// TestDistDemuxSplitReads: response frames that reach the demux one byte
// per Read, and several frames in a single Read, are reassembled into
// exactly the payload each waiter sent.
func TestDistDemuxSplitReads(t *testing.T) {
	raw, srv := net.Pipe()
	defer srv.Close()
	cli := &countingConn{Conn: raw}
	tc := newTCPConn(cli)
	defer tc.Close()

	const calls = 8
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func(i int) {
			want := []byte(fmt.Sprintf("call-%d-%s", i, strings.Repeat("x", 7*i)))
			resp, err := tc.Call(opEcho, want, time.Now().Add(30*time.Second))
			if err == nil && !bytes.Equal(resp, want) {
				err = fmt.Errorf("sent %q, got %q", want, resp)
			}
			errs <- err
		}(i)
	}

	// Play the server: take every request, then answer in reverse order —
	// the first half one byte per Write (a net.Pipe Read never returns
	// more than one Write), the rest coalesced into one Write.
	type frame struct {
		id      uint32
		payload []byte
	}
	var reqs []frame
	for len(reqs) < calls {
		_, id, payload, err := readFrame(srv)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, frame{id, payload})
	}
	var coalesced []byte
	for i := calls - 1; i >= 0; i-- {
		f := frameBytes(statusOK, reqs[i].id, reqs[i].payload)
		if i < calls/2 {
			coalesced = append(coalesced, f...)
			continue
		}
		for _, b := range f {
			if _, err := srv.Write([]byte{b}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := srv.Write(coalesced); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < calls; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	cli.mu.Lock()
	defer cli.mu.Unlock()
	ones, largest := 0, 0
	for _, n := range cli.reads {
		if n == 1 {
			ones++
		}
		largest = max(largest, n)
	}
	if ones == 0 || largest < len(coalesced) {
		t.Fatalf("the stream did not split as scripted: %d one-byte reads, largest read %d of %d coalesced bytes",
			ones, largest, len(coalesced))
	}
}

// TestDistHostileFrameLength: a peer that announces a 200 MB payload and
// hangs up costs the other side well under 1 MB of allocation — the
// payload grows only as bytes arrive — and the connection is dropped with
// a transport error, on the client and on the server.
func TestDistHostileFrameLength(t *testing.T) {
	const announced = 200 << 20
	header := func(tag byte, id uint32) []byte {
		b := []byte{tag, 0, 0, 0, 0, 0, 0, 0, 0}
		binary.LittleEndian.PutUint32(b[1:], id)
		binary.LittleEndian.PutUint32(b[5:], announced)
		return b
	}
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	t.Run("client", func(t *testing.T) {
		cli, srv := net.Pipe()
		defer srv.Close()
		var callErr error
		cost := allocated(func() {
			tc := newTCPConn(cli)
			defer tc.Close()
			go func() {
				_, id, _, err := readFrame(srv)
				if err != nil {
					return
				}
				srv.Write(header(statusOK, id))
				srv.Close()
			}()
			_, callErr = tc.Call(opMeta, []byte{protoVersion}, time.Now().Add(30*time.Second))
			if _, err := tc.Call(opMeta, []byte{protoVersion}, time.Now().Add(30*time.Second)); err == nil {
				t.Error("the connection survived a truncated 200 MB frame")
			}
		})
		if callErr == nil || !IsTransportError(callErr) {
			t.Fatalf("truncated 200 MB response: want a transport error, got %v", callErr)
		}
		if cost >= 1<<20 {
			t.Fatalf("a 9-byte header announcing %d bytes cost the client %d bytes of allocation", announced, cost)
		}
	})

	t.Run("server", func(t *testing.T) {
		cli, srv := net.Pipe()
		defer cli.Close()
		cost := allocated(func() {
			done := make(chan struct{})
			go func() {
				serveConn(srv, newGateHandler())
				close(done)
			}()
			if _, err := cli.Write(header(opEcho, 1)); err != nil {
				t.Error(err)
			}
			cli.Close()
			<-done
		})
		// serveConn returned and closed its end: the connection is gone.
		if _, err := srv.Read(make([]byte, 1)); err != io.ErrClosedPipe {
			t.Fatalf("server end after the truncated frame: %v, want it closed", err)
		}
		if cost >= 1<<20 {
			t.Fatalf("a 9-byte header announcing %d bytes cost the server %d bytes of allocation", announced, cost)
		}
	})
}

// wireBench is a Router over a K = 4 Cluster served on TCP, with no
// result cache, and the query streams the round-trip pins run: range
// boxes at 1e-3 selectivity and kNN probes at k = 16, cycled.
type wireBench struct {
	rt     *Router
	dials  *countingTransport
	boxes  []geom.AABB
	probes []query.KNNQuery
	out    []int32
}

// countingTransport is a TCPTransport that counts its dials, so a
// measurement can tell whether a redial landed inside it.
type countingTransport struct {
	TCPTransport
	n atomic.Int64
}

func (t *countingTransport) Dial(addr string) (Conn, error) {
	t.n.Add(1)
	return t.TCPTransport.Dial(addr)
}

func newWireBench(tb testing.TB, n int) *wireBench {
	tb.Helper()
	m, err := meshgen.BuildBoxTet(n, n, n, 1/float64(n))
	if err != nil {
		tb.Fatal(err)
	}
	sm, err := shard.NewMesh(m, 4, shard.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	cl := NewCluster(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return core.New(sub) })
	addrs, err := cl.ServeTCP()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cl.Close)
	dials := &countingTransport{}
	rt := NewRouter(dials, addrs, RetryPolicy{})
	tb.Cleanup(rt.Close)
	g := workload.NewGenerator(m, 4096, 1)
	return &wireBench{
		rt:     rt,
		dials:  dials,
		boxes:  g.UniformQueries(64, 1e-3),
		probes: g.KNNQueries(64, 16, 16, 0),
		out:    make([]int32, 0, m.NumVertices()),
	}
}

// query runs query i of the range (or kNN) stream into the preallocated
// out.
func (w *wireBench) query(tb testing.TB, knn bool, i int) {
	var err error
	if knn {
		p := w.probes[i%len(w.probes)]
		w.out, _, err = w.rt.KNN(p.P, p.K, w.out[:0])
	} else {
		w.out, _, err = w.rt.Range(w.boxes[i%len(w.boxes)], w.out[:0])
	}
	if err != nil {
		tb.Fatal(err)
	}
}

// legs counts the RPC legs of one kind the router has completed.
func (w *wireBench) legs(knn bool) int64 {
	if ws := w.rt.WireStats(); knn {
		return ws.KNN.Calls
	} else {
		return ws.Range.Calls
	}
}

// maxAllocsPerLeg is what a warmed RPC leg may allocate, counted over the
// whole process (router, both transport ends, server):
//   - the response payload the client's demux reads, which becomes the
//     caller's reply;
//   - the response the server's Handle encodes, which the transport owns
//     until it is written.
//
// Requests encode into the router cursor's buffer and arrive in the
// server connection's pooled buffers; frames leave from each
// connection's kept write buffer; waiters and their timers are pooled
// per connection, handler goroutines per served connection; replies
// decode straight into the caller's out or KBest.
const maxAllocsPerLeg = 2

// allocPass is one measured pass of a query stream: whole-process
// allocations per RPC leg, legs per query, and what else happened in the
// process meanwhile — goroutines before and after, redials, Meta
// refreshes and retries. A clean pass changes none of the last four.
type allocPass struct {
	perLeg, legsPerQuery      float64
	goroutines0, goroutines1  int
	dials, metaCalls, retries int64
}

func (p allocPass) String() string {
	return fmt.Sprintf("%.2f allocations per RPC leg (%.2f legs per query; goroutines %d -> %d, %d redials, %d Meta calls, %d retries in the pass)",
		p.perLeg, p.legsPerQuery, p.goroutines0, p.goroutines1, p.dials, p.metaCalls, p.retries)
}

// allocsPerLeg warms every query of the stream, then measures one pass.
// The GC is off from the warm-up to the end of the pass: a collection
// empties each server's sync.Pool of query cursors, and the cursors and
// buffers rebuilt after it would be counted as the legs' garbage.
//
// The process runs on one P for the same reason. A sync.Pool keeps its
// last-returned object in a per-P slot that no other P can take from, so
// with two Ps a handler goroutine scheduled on the other P finds the
// server's pool empty and builds a fresh cursor — and that cold cursor
// then grows its kNN heaps on the first large queries it meets. Under CPU
// load this happened several times a pass, 20–70 allocations each, which
// lifted the truncated per-query count by one (2.22 per leg at 1.8 legs
// per query). On one P every pool hands back the object the warm-up
// grew.
func (w *wireBench) allocsPerLeg(tb testing.TB, knn bool) allocPass {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n := len(w.boxes)
	for i := 0; i < 2*n; i++ {
		w.query(tb, knn, i)
	}
	p := allocPass{goroutines0: runtime.NumGoroutine()}
	before, dials, ws, st := w.legs(knn), w.dials.n.Load(), w.rt.WireStats(), w.rt.Stats()
	i := 0
	perQuery := testing.AllocsPerRun(n, func() { w.query(tb, knn, i); i++ })
	p.goroutines1 = runtime.NumGoroutine()
	p.dials = w.dials.n.Load() - dials
	p.metaCalls = w.rt.WireStats().Meta.Calls - ws.Meta.Calls
	p.retries = w.rt.Stats().Retries - st.Retries
	// AllocsPerRun runs the query once more, unmeasured, before the pass.
	p.legsPerQuery = float64(w.legs(knn)-before) / float64(n+1)
	p.perLeg = perQuery / p.legsPerQuery
	return p
}

// TestDistTCPRoundTripAllocs pins the round trip's garbage: a warmed
// router over TCP allocates at most maxAllocsPerLeg objects per RPC leg
// for range and kNN queries.
func TestDistTCPRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	w := newWireBench(t, 12)
	for _, knn := range []bool{false, true} {
		if p := w.allocsPerLeg(t, knn); p.perLeg > maxAllocsPerLeg {
			t.Errorf("knn=%v: %v, want <= %d per leg", knn, p, maxAllocsPerLeg)
		}
	}
}

// BenchmarkTCPRoundTrip times whole router queries over TCP on a 24³ box
// split K = 4 ways: range at 1e-3 selectivity and kNN at k = 16. It
// reports legs/op (RPCs per query) beside ns/op and allocs/op, and fails
// when a warmed leg allocates more than maxAllocsPerLeg.
func BenchmarkTCPRoundTrip(b *testing.B) {
	w := newWireBench(b, 24)
	for _, c := range []struct {
		name string
		knn  bool
	}{{"range", false}, {"knn", true}} {
		b.Run(c.name, func(b *testing.B) {
			if p := w.allocsPerLeg(b, c.knn); p.perLeg > maxAllocsPerLeg {
				b.Fatalf("warmed: %v, want <= %d per leg", p, maxAllocsPerLeg)
			}
			before := w.legs(c.knn)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.query(b, c.knn, i)
			}
			b.StopTimer()
			b.ReportMetric(float64(w.legs(c.knn)-before)/float64(b.N), "legs/op")
		})
	}
}
