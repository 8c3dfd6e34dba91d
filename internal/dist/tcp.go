package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
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

// maxFrame bounds a frame payload — a whole-shard publish of a large
// sub-mesh fits far under it; anything bigger is a corrupt stream.
const maxFrame = 1 << 28

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
// server runs at once; excess requests queue in arrival order.
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

// muxResult is one demuxed response frame.
type muxResult struct {
	status  byte
	payload []byte
}

// tcpConn is the multiplexing client side of one TCP connection.
type tcpConn struct {
	c   net.Conn
	wmu sync.Mutex // serializes frame writes (frames must not interleave)

	mu        sync.Mutex
	waiters   map[uint32]chan muxResult // in-flight request id -> its waiter
	abandoned map[uint32]bool           // timed-out ids whose response is still owed
	nextID    uint32
	err       error // set once the conn is condemned; all calls fail with it
}

func newTCPConn(c net.Conn) *tcpConn {
	tc := &tcpConn{
		c:         c,
		waiters:   make(map[uint32]chan muxResult),
		abandoned: make(map[uint32]bool),
	}
	go tc.readLoop()
	return tc
}

// readLoop is the demux goroutine: it owns the read side of the
// connection, routing each response frame to the waiter whose request id
// it carries. A response for an abandoned (timed-out) id is dropped; a
// response for an id that was never issued condemns the connection — the
// stream is not trustworthy anymore.
func (c *tcpConn) readLoop() {
	for {
		status, id, payload, err := readFrame(c.c)
		if err != nil {
			c.condemn(transportErrorf("dist: read %s: %v", c.c.RemoteAddr(), err))
			return
		}
		c.mu.Lock()
		if ch, ok := c.waiters[id]; ok {
			delete(c.waiters, id)
			c.mu.Unlock()
			ch <- muxResult{status: status, payload: payload} // buffered: never blocks
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
	for id, ch := range c.waiters {
		delete(c.waiters, id)
		close(ch)
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
	ch := make(chan muxResult, 1)
	c.waiters[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	c.c.SetWriteDeadline(deadline) // zero deadline clears it
	err := writeFrame(c.c, op, id, req)
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
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case res, ok := <-ch:
		return c.finish(res, ok)
	case <-timeout:
		c.mu.Lock()
		if _, inFlight := c.waiters[id]; inFlight {
			delete(c.waiters, id)
			c.abandoned[id] = true
			condemned := len(c.abandoned) > maxAbandoned
			c.mu.Unlock()
			if condemned {
				c.condemn(transportErrorf("dist: %s owes %d abandoned responses", c.c.RemoteAddr(), maxAbandoned))
			}
			return nil, transportErrorf("dist: deadline exceeded awaiting %s", c.c.RemoteAddr())
		}
		c.mu.Unlock()
		// The demux claimed the waiter before the timeout fired: the
		// response is in the buffered channel (or the conn died). Take it.
		res, ok := <-ch
		return c.finish(res, ok)
	}
}

// finish converts a demuxed response (or a closed-channel wakeup) into
// Call's return values.
func (c *tcpConn) finish(res muxResult, ok bool) ([]byte, error) {
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = transportErrorf("dist: connection to %s closed", c.c.RemoteAddr())
		}
		return nil, err
	}
	if res.status == statusErr {
		return nil, errors.New(string(res.payload))
	}
	return res.payload, nil
}

func (c *tcpConn) Close() error {
	c.condemn(transportErrorf("dist: connection closed"))
	return nil
}

func writeFrame(w io.Writer, tag byte, id uint32, payload []byte) error {
	var hdr [9]byte
	hdr[0] = tag
	binary.LittleEndian.PutUint32(hdr[1:], id)
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readFrame(r io.Reader) (tag byte, id uint32, payload []byte, err error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	id = binary.LittleEndian.Uint32(hdr[1:])
	n := binary.LittleEndian.Uint32(hdr[5:])
	if n > maxFrame {
		return 0, 0, nil, fmt.Errorf("frame of %d bytes exceeds limit", n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return hdr[0], id, payload, nil
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
// dispatches each request frame to its own handler goroutine (bounded by
// maxConnConcurrency) and responses are written back, under a shared
// write lock, in whatever order the handlers finish — the request id is
// what lets the client reassemble them.
func serveConn(conn net.Conn, h Handler) {
	var (
		wmu sync.Mutex
		wg  sync.WaitGroup
	)
	sem := make(chan struct{}, maxConnConcurrency)
	defer func() {
		// Let in-flight handlers drain before the conn is torn down, so a
		// response is never half-written by a racing Close.
		wg.Wait()
		conn.Close()
	}()
	for {
		op, id, req, err := readFrame(conn)
		if err != nil {
			return // client went away (or sent garbage): drop the conn
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(op byte, id uint32, req []byte) {
			defer func() {
				<-sem
				wg.Done()
			}()
			resp, err := h.Handle(op, req)
			status, payload := statusOK, resp
			if err != nil {
				status, payload = statusErr, []byte(err.Error())
			}
			wmu.Lock()
			defer wmu.Unlock()
			// Bound the write so a client that stopped reading cannot park
			// this handler (and the write lock) forever; a failed write is
			// terminal for the conn anyway — the read side will error out.
			conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
			writeFrame(conn, status, id, payload)
		}(op, id, req)
	}
}
