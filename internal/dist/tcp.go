package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// TCP frames (DESIGN.md §16): request = [op u8][id u32][len u32][payload],
// response = [status u8][id u32][len u32][payload], little-endian, with
// status 0 = ok (payload is the response message) and 1 = application
// error (payload is the error text). The request id multiplexes the
// connection: the client tags every request with a fresh id, a demux
// goroutine routes each response frame to the waiter that sent the
// matching id, and the server handles each request on its own goroutine
// — so one connection carries many concurrent in-flight RPCs and a slow
// exchange never head-of-line-blocks a fast one. Responses may arrive in
// any order.
//
// Each frame leaves in one Write (header and payload copied into the
// connection's frame buffer), so with TCP_NODELAY a small RPC costs one
// segment each way; each side reads through one bufio.Reader per
// connection, so a small frame costs one read syscall, or none when it
// arrived with its neighbors.

// maxFrame bounds a frame payload — a whole-shard publish of a large
// sub-mesh fits far under it; anything bigger is a corrupt stream.
const maxFrame = 1 << 28

// frameHeader is the size of a frame header: tag, id, payload length.
const frameHeader = 9

// readBufSize is the per-connection read buffer: every query frame fits
// it, and a larger payload bypasses it, read straight into its
// destination.
const readBufSize = 64 << 10

// readStep is the payload a header alone may make the reader allocate:
// beyond it a payload grows only as its bytes arrive (at most doubling),
// so a header announcing maxFrame bytes costs readStep, not maxFrame,
// until the peer actually sends them.
const readStep = 64 << 10

// maxKeptFrame bounds the frame buffers a connection keeps between
// frames (the write buffer, the server's request buffers): a full publish
// uses a larger one once and drops it instead of pinning it.
const maxKeptFrame = 1 << 20

const (
	statusOK  = byte(0)
	statusErr = byte(1)
)

// maxAbandoned bounds the timed-out request ids a connection still owes
// responses for. A response for an abandoned id is silently dropped (the
// waiter already returned a deadline error); a backlog this deep means
// the server is not a well-behaved peer and the conn is condemned.
const maxAbandoned = 1024

// maxConnConcurrency bounds the per-connection handler goroutines a
// server runs; when every one is busy, requests queue in arrival order.
const maxConnConcurrency = 64

// TCPTransport dials shard servers over TCP.
type TCPTransport struct {
	// DialTimeout bounds connection establishment; 0 uses 2s.
	DialTimeout time.Duration
}

// Dial implements Transport.
func (t *TCPTransport) Dial(addr string) (Conn, error) {
	d := t.DialTimeout
	if d <= 0 {
		d = 2 * time.Second
	}
	c, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, transportErrorf("dist: dial %s: %v", addr, err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return newTCPConn(c), nil
}

// frameWriter sends frames on one stream, each with a single Write from
// a buffer it keeps between frames. Not safe for concurrent use: both
// endpoints hold their connection's write lock around write.
type frameWriter struct {
	w   io.Writer
	buf []byte
}

func (f *frameWriter) write(tag byte, id uint32, payload []byte) error {
	f.buf = append(f.buf[:0], tag, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(f.buf[1:], id)
	binary.LittleEndian.PutUint32(f.buf[5:], uint32(len(payload)))
	f.buf = append(f.buf, payload...)
	_, err := f.w.Write(f.buf)
	if cap(f.buf) > maxKeptFrame {
		f.buf = nil
	}
	return err
}

// frameReader decodes frames from one stream. The header lands in hdr,
// part of the long-lived reader, so reading one allocates nothing.
type frameReader struct {
	r   io.Reader
	hdr [frameHeader]byte
}

// next reads one frame, its payload into buf's storage (grown as the
// bytes arrive, never ahead of them by more than readStep or the bytes
// already read). The returned payload aliases buf when buf was large
// enough.
func (f *frameReader) next(buf []byte) (tag byte, id uint32, payload []byte, err error) {
	if _, err := io.ReadFull(f.r, f.hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	id = binary.LittleEndian.Uint32(f.hdr[1:])
	n := int(binary.LittleEndian.Uint32(f.hdr[5:]))
	if n > maxFrame {
		return 0, 0, nil, fmt.Errorf("frame of %d bytes exceeds limit", n)
	}
	payload = buf[:0]
	for len(payload) < n {
		have := len(payload)
		step := min(n-have, max(have, readStep))
		payload = slices.Grow(payload, step)[:have+step]
		if _, err := io.ReadFull(f.r, payload[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, 0, nil, err
		}
	}
	return f.hdr[0], id, payload, nil
}

// muxResult is one demuxed response frame.
type muxResult struct {
	status  byte
	payload []byte
}

// waiter is one in-flight call's rendezvous with the demux goroutine:
// the response channel (buffered, so the demux never blocks) and the
// call's deadline timer. Waiters are recycled per connection; Go's timer
// semantics (Stop and Reset leave no stale tick in timer.C) make the
// timer reusable. A waiter whose channel condemn closed is never reused.
type waiter struct {
	ch    chan muxResult
	timer *time.Timer // nil until the first call with a deadline
}

// tcpConn is the multiplexing client side of one TCP connection.
type tcpConn struct {
	c   net.Conn
	wmu sync.Mutex  // serializes frame writes (frames must not interleave)
	fw  frameWriter // guarded by wmu

	mu        sync.Mutex
	waiters   map[uint32]*waiter // in-flight request id -> its waiter
	abandoned map[uint32]bool    // timed-out ids whose response is still owed
	free      []*waiter          // idle waiters, ready for the next call
	nextID    uint32
	err       error // set once the conn is condemned; all calls fail with it
}

func newTCPConn(c net.Conn) *tcpConn {
	tc := &tcpConn{
		c:         c,
		fw:        frameWriter{w: c},
		waiters:   make(map[uint32]*waiter),
		abandoned: make(map[uint32]bool),
	}
	go tc.readLoop()
	return tc
}

// readLoop is the demux goroutine: it owns the read side of the
// connection, routing each response frame to the waiter whose request id
// it carries. A response for an abandoned (timed-out) id is dropped; a
// response for an id that was never issued condemns the connection — the
// stream is not trustworthy anymore. Each payload is read into a fresh
// buffer: it becomes the caller's response.
func (c *tcpConn) readLoop() {
	fr := frameReader{r: bufio.NewReaderSize(c.c, readBufSize)}
	for {
		status, id, payload, err := fr.next(nil)
		if err != nil {
			c.condemn(transportErrorf("dist: read %s: %v", c.c.RemoteAddr(), err))
			return
		}
		c.mu.Lock()
		if w, ok := c.waiters[id]; ok {
			delete(c.waiters, id)
			c.mu.Unlock()
			w.ch <- muxResult{status: status, payload: payload} // buffered: never blocks
			continue
		}
		if c.abandoned[id] {
			delete(c.abandoned, id)
			c.mu.Unlock()
			continue
		}
		c.mu.Unlock()
		c.condemn(transportErrorf("dist: %s sent a response for unknown request id %d", c.c.RemoteAddr(), id))
		return
	}
}

// condemn marks the connection broken: the first error wins, every
// in-flight waiter is woken with it (closed channel), and the socket is
// closed so the demux goroutine exits. Safe to call repeatedly.
func (c *tcpConn) condemn(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	for id, w := range c.waiters {
		delete(c.waiters, id)
		close(w.ch)
	}
	c.mu.Unlock()
	c.c.Close()
}

// Call implements Conn: register a waiter, write the tagged request
// frame, and block until the demux goroutine delivers the matching
// response, the deadline passes, or the connection dies. A timed-out
// request leaves the connection usable: its id is tombstoned so the late
// response is dropped instead of condemning the stream.
func (c *tcpConn) Call(op byte, req []byte, deadline time.Time) ([]byte, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	var w *waiter
	if n := len(c.free); n > 0 {
		w = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		w = &waiter{ch: make(chan muxResult, 1)}
	}
	c.waiters[id] = w
	c.mu.Unlock()

	c.wmu.Lock()
	c.c.SetWriteDeadline(deadline) // zero deadline clears it
	err := c.fw.write(op, id, req)
	c.wmu.Unlock()
	if err != nil {
		// A half-written frame poisons the stream for every in-flight
		// call, not just this one.
		werr := transportErrorf("dist: write %s: %v", c.c.RemoteAddr(), err)
		c.condemn(werr)
		return nil, werr
	}

	var timeout <-chan time.Time
	if !deadline.IsZero() {
		if d := time.Until(deadline); w.timer == nil {
			w.timer = time.NewTimer(d)
		} else {
			w.timer.Reset(d)
		}
		timeout = w.timer.C
	}
	select {
	case res, ok := <-w.ch:
		return c.finish(w, res, ok)
	case <-timeout:
		c.mu.Lock()
		if _, inFlight := c.waiters[id]; inFlight {
			delete(c.waiters, id)
			c.abandoned[id] = true
			condemned := len(c.abandoned) > maxAbandoned
			// Nobody can send on w.ch now, and its tick was consumed.
			c.free = append(c.free, w)
			c.mu.Unlock()
			if condemned {
				c.condemn(transportErrorf("dist: %s owes %d abandoned responses", c.c.RemoteAddr(), maxAbandoned))
			}
			return nil, transportErrorf("dist: deadline exceeded awaiting %s", c.c.RemoteAddr())
		}
		c.mu.Unlock()
		// The demux claimed the waiter before the timeout fired: the
		// response is in the buffered channel (or the conn died). Take it.
		res, ok := <-w.ch
		return c.finish(w, res, ok)
	}
}

// finish converts a demuxed response (or a closed-channel wakeup) into
// Call's return values, recycling w unless condemn closed its channel.
func (c *tcpConn) finish(w *waiter, res muxResult, ok bool) ([]byte, error) {
	if w.timer != nil {
		w.timer.Stop()
	}
	c.mu.Lock()
	if !ok {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = transportErrorf("dist: connection to %s closed", c.c.RemoteAddr())
		}
		return nil, err
	}
	c.free = append(c.free, w)
	c.mu.Unlock()
	if res.status == statusErr {
		return nil, errors.New(string(res.payload))
	}
	return res.payload, nil
}

func (c *tcpConn) Close() error {
	c.condemn(transportErrorf("dist: connection closed"))
	return nil
}

// TCPServer serves one shard over a listener while tracking the accepted
// connections, so Stop can sever in-flight clients too — the process
// kill of the fault drills, not just a refused redial. cmd/shardserver
// and Cluster.ServeTCP serve through it.
type TCPServer struct {
	ln net.Listener
	h  Handler

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// NewTCPServer wraps ln; call Serve to start accepting.
func NewTCPServer(ln net.Listener, h Handler) *TCPServer {
	return &TCPServer{ln: ln, h: h, conns: make(map[net.Conn]struct{})}
}

// Addr returns the listener's address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Serve accepts connections and serves their RPCs until Stop (or a
// listener error); each connection demuxes its requests onto
// per-request goroutines. It returns the listener's final Accept error
// (net.ErrClosed after Stop).
func (s *TCPServer) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go func() {
			serveConn(conn, s.h)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Stop closes the listener and every live connection: clients in flight
// see I/O failures (transport errors — retried, then surfaced honestly),
// never a half-written response. Idempotent.
func (s *TCPServer) Stop() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

// serveConn is the server side of the multiplexed protocol: a read loop
// hands each request frame to an idle handler goroutine, starting one
// only when every started handler is busy (at most maxConnConcurrency
// per connection), and responses are written back, under a shared write
// lock, in whatever order the handlers finish — the request id is what
// lets the client reassemble them. Request payloads come from a
// per-connection free list: a handler returns its request buffer once
// Handle is done with it (Handler's contract: req is not retained).
func serveConn(conn net.Conn, h Handler) {
	sc := &connServer{
		conn: conn,
		h:    h,
		fw:   frameWriter{w: conn},
		reqs: make(chan request),
		// At most maxConnConcurrency handlers plus the read loop hold a
		// request buffer at once.
		free: make(chan []byte, maxConnConcurrency+1),
	}
	defer func() {
		// Let in-flight handlers drain before the conn is torn down, so a
		// response is never half-written by a racing Close.
		close(sc.reqs)
		sc.wg.Wait()
		conn.Close()
	}()
	fr := frameReader{r: bufio.NewReaderSize(conn, readBufSize)}
	handlers := 0
	for {
		var buf []byte
		select {
		case buf = <-sc.free:
		default:
		}
		op, id, req, err := fr.next(buf)
		if err != nil {
			return // client went away (or sent garbage): drop the conn
		}
		r := request{op: op, id: id, req: req}
		// A handler that has not yet come back to sc.reqs is idle all the
		// same once its request is no longer counted: hand off to it
		// rather than start another that would idle for the conn's life.
		if int(sc.inflight.Add(1)) > handlers && handlers < maxConnConcurrency {
			handlers++
			sc.wg.Add(1)
			go sc.serve(r)
		} else {
			sc.reqs <- r // an idle handler takes it, or the first to free up
		}
	}
}

// request is one request frame on its way to a handler goroutine.
type request struct {
	op  byte
	id  uint32
	req []byte
}

// connServer is one served connection's shared state: what its handler
// goroutines need besides their request.
type connServer struct {
	conn net.Conn
	h    Handler
	wmu  sync.Mutex
	fw   frameWriter // guarded by wmu
	wg   sync.WaitGroup
	reqs chan request // unbuffered: a send succeeds only into an idle handler
	free chan []byte  // request buffers ready for reuse
	// inflight counts the requests handed to handlers and not yet
	// handled; the read loop starts a handler only when it exceeds the
	// handlers started.
	inflight atomic.Int32
}

// serve is one handler goroutine: it handles r, then every request it
// takes from sc.reqs until the read loop closes it.
func (sc *connServer) serve(r request) {
	defer sc.wg.Done()
	for ok := true; ok; r, ok = <-sc.reqs {
		sc.handle(r)
	}
}

// handle runs one request and writes its response frame.
func (sc *connServer) handle(r request) {
	resp, err := sc.h.Handle(r.op, r.req)
	// Done before the response is written, so that by the time the client
	// can send its next request this handler no longer counts as busy.
	sc.inflight.Add(-1)
	if cap(r.req) <= maxKeptFrame {
		select {
		case sc.free <- r.req:
		default: // unreachable: the channel has room for every buffer
		}
	}
	status, payload := statusOK, resp
	if err != nil {
		status, payload = statusErr, []byte(err.Error())
	}
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	// Bound the write so a client that stopped reading cannot park this
	// handler (and the write lock) forever; a failed write is terminal for
	// the conn anyway — the read side will error out.
	sc.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	sc.fw.write(status, r.id, payload)
}
