package dist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// client is the tier's one RPC client: lazily dialed per-shard
// connection pools, the retry loop, the wire accounting and the control
// fan-out. The Router's query side and the Cluster's control side differ
// only in the policy and pool size they build it with.
//
// The fan-out sends one RPC to every shard at once and waits for all the
// replies: a publish or maintain round costs the slowest shard's round
// trip, not the sum of K. Each shard has one long-lived control worker
// that runs its fan-out RPCs one at a time, in issue order. A failing
// shard does not stop the others: every reachable shard answers, and the
// caller decides what a failed reply means. Only the control plane uses
// it. Query legs and the router's metadata refresh call their shards one
// at a time on the caller's goroutine.
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

	// fanMu admits one fan-out at a time and guards the fields below:
	// the workers read the current round's op, requests and reply slots
	// after their wake-up, and write their own slot before pending.Done.
	fanMu   sync.Mutex
	work    []chan struct{} // per shard: wakes its control worker; nil until the first fan-out
	workers sync.WaitGroup  // running control workers
	pending sync.WaitGroup  // replies the current round still waits for
	fanOp   byte
	fanReqs [][]byte
	fanOut  []reply // per shard: the current round's reply
}

// reply is one shard's answer to a fan-out: the response bytes or the
// error call reported.
type reply struct {
	resp []byte
	err  error
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

// fanout sends op to shards 0..len(reqs)-1 at once, reqs[s] to shard s,
// waits for every reply, then hands them to check in shard order: each as
// call would have returned it for that shard alone. It returns the first
// error check returns, or nil. Concurrent fan-outs take turns: check
// runs under the turn and must not call back into the client. Once the
// workers run, a round allocates nothing; reqs is not retained, and a
// reply is valid only inside check.
func (c *client) fanout(op byte, reqs [][]byte, check func(s int, resp []byte, err error) error) error {
	c.fanMu.Lock()
	defer c.fanMu.Unlock()
	if c.work == nil {
		c.work = make([]chan struct{}, len(c.addrs))
		c.fanOut = make([]reply, len(c.addrs))
		for s := range c.work {
			// One slot: a round starts only after every worker took the
			// previous round's wake-up, so the send never blocks.
			c.work[s] = make(chan struct{}, 1)
			c.workers.Add(1)
			go c.controlWorker(s, c.work[s])
		}
	}
	c.fanOp, c.fanReqs = op, reqs
	c.pending.Add(len(reqs))
	for s := range reqs {
		c.work[s] <- struct{}{}
	}
	c.pending.Wait()
	c.fanReqs = nil
	var first error
	for s := range reqs {
		r := &c.fanOut[s]
		if first == nil {
			first = check(s, r.resp, r.err)
		}
		*r = reply{}
	}
	return first
}

// sameReq returns k copies of req: the requests of a fan-out that sends
// every shard the same bytes (Maintain).
func sameReq(req []byte, k int) [][]byte {
	reqs := make([][]byte, k)
	for s := range reqs {
		reqs[s] = req
	}
	return reqs
}

// controlWorker runs shard s's share of every fan-out round until work
// closes.
func (c *client) controlWorker(s int, work <-chan struct{}) {
	defer c.workers.Done()
	for range work {
		r := &c.fanOut[s]
		r.resp, r.err = c.call(s, c.fanOp, c.fanReqs[s])
		c.pending.Done()
	}
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

// close stops the control workers, after the fan-out in flight (if any)
// completes, and drops every connection. The client keeps working
// afterwards (connections redial and workers restart lazily); close is
// for orderly shutdown.
func (c *client) close() {
	c.fanMu.Lock()
	for _, w := range c.work {
		close(w)
	}
	c.work = nil
	c.fanMu.Unlock()
	c.workers.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	for s, cs := range c.conns {
		for _, conn := range cs {
			conn.Close()
		}
		c.conns[s] = nil
	}
}
