package dist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// client is the tier's one RPC client: lazily dialed per-shard
// connection pools, the retry loop and the wire accounting. The Router's
// query side and the Cluster's control side differ only in the policy and
// pool size they build it with.
type client struct {
	tr     Transport
	addrs  []string
	policy RetryPolicy
	pool   int // connections per shard

	mu    sync.Mutex
	conns [][]Conn // per shard: up to pool connections
	rr    []int    // per shard: round-robin pick among them

	wire    wireCounters
	retries atomic.Int64
}

// queryPool is the number of connections per shard the router
// round-robins its RPCs over. Concurrent RPCs already pipeline on one
// multiplexed connection; the second spreads the read/write goroutine
// and syscall load when many concurrent queries fan out to one shard.
const queryPool = 2

// controlPolicy is the control plane's retry behavior: one connection
// per shard (publishes must arrive in order), one immediate redial on a
// transport failure and a long deadline. A dead shard must surface, not
// be papered over.
var controlPolicy = RetryPolicy{Attempts: 2, Deadline: 10 * time.Second}

func newClient(tr Transport, addrs []string, policy RetryPolicy, pool int) *client {
	return &client{
		tr:     tr,
		addrs:  append([]string(nil), addrs...),
		policy: policy,
		pool:   pool,
		conns:  make([][]Conn, len(addrs)),
		rr:     make([]int, len(addrs)),
	}
}

// call performs one RPC to shard s under the retry policy: each attempt
// runs to its own deadline, transport failures back off exponentially
// and redial, application errors return immediately. The terminal error
// names the shard — the degraded trace the caller surfaces.
func (c *client) call(s int, op byte, req []byte) ([]byte, error) {
	backoff := c.policy.Backoff
	var lastErr error
	for attempt := 0; attempt < c.policy.Attempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			time.Sleep(backoff)
			backoff *= 2
		}
		conn, err := c.conn(s)
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := conn.Call(op, req, time.Now().Add(c.policy.Deadline))
		if err == nil {
			c.wire.record(op, len(req), len(resp))
			return resp, nil
		}
		lastErr = err
		if !IsTransportError(err) {
			c.wire.record(op, len(req), 0)
			return nil, err // the server itself refused: not retryable
		}
		c.dropConn(s, conn)
	}
	return nil, fmt.Errorf("dist: shard %d (%s) unreachable after %d attempts: %w",
		s, c.addrs[s], c.policy.Attempts, lastErr)
}

// conn returns a pooled connection to shard s: the pool grows by dialing
// until it holds c.pool connections, then round-robins over them.
func (c *client) conn(s int) (Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.conns[s]) < c.pool {
		conn, err := c.tr.Dial(c.addrs[s])
		if err != nil {
			return nil, err
		}
		c.conns[s] = append(c.conns[s], conn)
		return conn, nil
	}
	c.rr[s]++
	return c.conns[s][c.rr[s]%len(c.conns[s])], nil
}

func (c *client) dropConn(s int, conn Conn) {
	c.mu.Lock()
	cs := c.conns[s]
	for i, cc := range cs {
		if cc == conn {
			cs[i] = cs[len(cs)-1]
			c.conns[s] = cs[:len(cs)-1]
			break
		}
	}
	c.mu.Unlock()
	conn.Close()
}

// close drops every connection. The client keeps working afterwards
// (connections redial lazily); close is for orderly shutdown.
func (c *client) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for s, cs := range c.conns {
		for _, conn := range cs {
			conn.Close()
		}
		c.conns[s] = nil
	}
}
