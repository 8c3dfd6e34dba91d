package dist

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Transport connects a router to shard servers by address. The two
// implementations — Loopback (in-process, deterministic, killable) and
// TCP — carry the identical byte-level protocol, so everything above the
// Conn interface behaves the same over both.
type Transport interface {
	// Dial opens a connection to the server at addr.
	Dial(addr string) (Conn, error)
}

// Conn is one client connection. Call performs a single request/response
// exchange: op selects the RPC, req is the encoded request, and the
// response bytes are returned. deadline bounds the whole exchange (the
// zero time means no deadline). Call is safe for concurrent use, and
// concurrent calls pipeline: one Conn carries many in-flight exchanges
// at once (the TCP transport tags frames with request ids and demuxes;
// loopback calls are independent function invocations), so a slow RPC
// never head-of-line-blocks a fast one. req is not retained after Call
// returns — callers may reuse the buffer.
type Conn interface {
	Call(op byte, req []byte, deadline time.Time) ([]byte, error)
	Close() error
}

// Handler executes one decoded-from-the-wire RPC and returns the encoded
// response, or an application error reported to the client verbatim.
// *Server is the production handler; the transport tests inject blocking
// handlers to pin the multiplexing semantics down without sleeps.
// Handle must be safe for concurrent use — the transports dispatch
// concurrent in-flight requests concurrently. req is not retained after
// Handle returns (the rule Conn has for Call): the TCP server reads the
// next request into the same buffer. The returned response belongs to
// the transport.
type Handler interface {
	Handle(op byte, req []byte) ([]byte, error)
}

// errorf tags transport-level failures (dial, I/O, deadline, killed
// server) apart from application errors the server itself reported;
// only transport failures are retried.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

func transportErrorf(format string, args ...interface{}) error {
	return &transportError{err: fmt.Errorf(format, args...)}
}

// IsTransportError reports whether err is a transport-level failure
// (retryable) rather than an error the server itself returned.
func IsTransportError(err error) bool {
	var te *transportError
	return errors.As(err, &te)
}

// RetryPolicy bounds the router's per-RPC behavior: each attempt runs
// under Deadline, transport failures are retried up to Attempts total
// tries with exponential backoff starting at Backoff, and application
// errors are returned immediately.
type RetryPolicy struct {
	// Attempts is the total number of tries (>= 1); 0 uses 3.
	Attempts int
	// Backoff is the sleep before the second try, doubling per retry;
	// 0 uses 2ms.
	Backoff time.Duration
	// Deadline bounds each attempt's request/response exchange; 0 uses 2s.
	Deadline time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 2 * time.Millisecond
	}
	if p.Deadline <= 0 {
		p.Deadline = 2 * time.Second
	}
	return p
}

// Loopback is the in-process transport: servers register under string
// addresses and calls are direct function invocations — through the full
// encode/decode round trip, so every byte of the protocol is exercised.
// Kill makes a server unreachable (calls fail like a refused
// connection) until Revive; the fault drills use it to prove the router
// degrades honestly.
type Loopback struct {
	mu      sync.Mutex
	servers map[string]Handler
	dead    map[string]bool
}

// NewLoopback returns an empty in-process transport.
func NewLoopback() *Loopback {
	return &Loopback{servers: make(map[string]Handler), dead: make(map[string]bool)}
}

// Register makes handler h (typically a *Server) reachable at addr.
func (l *Loopback) Register(addr string, h Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.servers[addr] = h
}

// Kill makes the server at addr unreachable until Revive.
func (l *Loopback) Kill(addr string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dead[addr] = true
}

// Revive undoes Kill.
func (l *Loopback) Revive(addr string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.dead, addr)
}

// Dial implements Transport. Dialing succeeds even for a currently dead
// address (like a TCP SYN accepted by a dying host); the calls fail.
func (l *Loopback) Dial(addr string) (Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.servers[addr]; !ok {
		return nil, transportErrorf("loopback: no server at %q", addr)
	}
	return &loopbackConn{l: l, addr: addr}, nil
}

type loopbackConn struct {
	l    *Loopback
	addr string
}

func (c *loopbackConn) Call(op byte, req []byte, deadline time.Time) ([]byte, error) {
	c.l.mu.Lock()
	srv, ok := c.l.servers[c.addr]
	dead := c.l.dead[c.addr]
	c.l.mu.Unlock()
	if !ok || dead {
		return nil, transportErrorf("loopback: server %q unreachable", c.addr)
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return nil, transportErrorf("loopback: deadline exceeded calling %q", c.addr)
	}
	// The handler runs on the caller's goroutine, on the caller's req
	// buffer — the router reuses it for its next request once Call
	// returns, as the TCP server reuses its pooled request buffers. The
	// decoders copy what they keep, and the response is freshly encoded,
	// so neither side sees the other's later writes: the wire's isolation.
	return srv.Handle(op, req)
}

func (c *loopbackConn) Close() error { return nil }
