package main

import (
	"sync"
	"time"

	"octopus/internal/query"
)

// overLimit is the latency limit of the SLO number client.over_limit_frac:
// a quarter of the serve workloads' 100 ms writer tick.
const overLimit = 25 * time.Millisecond

// sample is one completed (or failed) client query.
type sample struct {
	knn    bool
	lat    time.Duration // from latencyStart to completion
	late   time.Duration // how late the generator sent it, when that was the generator's doing
	failed bool
	traced bool
}

// tracedOverhead is the traced samples' median range latency over the
// untraced ones', minus one.
func tracedOverhead(samples []sample) float64 {
	var on, off []float64
	for _, s := range samples {
		switch {
		case s.failed || s.knn:
		case s.traced:
			on = append(on, us(s.lat))
		default:
			off = append(off, us(s.lat))
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return median(on)/median(off) - 1
}

// busyPeriod is the open-loop timing rule. While a client works through
// requests back to back it is in one busy period, from the send that
// found it idle to the latest completion. A request that came due inside
// the period waited because the system was slow: it is timed from its due
// time, so a stall is charged to every request behind it. A request that
// came due while the client was idle is timed from its actual send, and
// the gap is generator lateness — time.Sleep overshoots by about a
// millisecond on this box, which is not the system's doing. A request
// that came due during that overshoot, before the period began, is timed
// from the period's start: that is when it would have gone out. All times
// are offsets from the segment start.
type busyPeriod struct{ from, until time.Duration }

// begin returns where the latency of a request due at due and sent at
// send starts, and how much of its delay was the generator's.
func (b *busyPeriod) begin(due, send time.Duration) (start, late time.Duration) {
	if due >= b.until {
		b.from = send
		return send, send - due
	}
	start = max(due, b.from)
	return start, start - due
}

// clientTries is how often a client sends an operation before it gives up.
const clientTries = 3

// clientSet drives a fixed number of client goroutines, one cursor each —
// never a resident Query/KNN from two goroutines.
type clientSet struct {
	ops     []op
	curs    []query.Cursor
	retried []int64   // per client: tries after an operation's first
	rec     *recorder // nil unless the run is traced
	next    []int     // closed loop: where in its stream each client goes on
}

// segment is the outcome of one open- or closed-loop segment.
type segment struct {
	start      time.Time // closed loop only
	samples    []sample
	sent       int // queries sent; more than len(samples) when the loop kept one sample in n
	wall       time.Duration
	offered    int           // requests scheduled (open loop)
	backlogMax int           // most requests due but unsent at any send
	tailLate   time.Duration // how far behind schedule the last tenth of the sends were, on average
}

// exec sends one op on client c's cursor. send and latStart are wall
// times; the spans of a traced query hang off one request id.
func (cs *clientSet) exec(c int, o *op, latStart, send time.Time) sample {
	cur := cs.curs[c]
	traced := cs.rec != nil && cs.rec.on.Load()
	var reqID, routerSpan int64
	if traced {
		reqID, routerSpan = cs.rec.id(), cs.rec.id()
		cs.rec.inflight[c].Store(&inflightReq{req: reqID, routerSpan: routerSpan, key: queryKey(o)})
	}
	var call time.Time // the call into the router, after the bookkeeping above
	if traced {
		call = time.Now()
	}
	// An operation fails when its last try does: the router answers a
	// query it cannot pin to one epoch (a publish caught on a stalled
	// processor) with an honest, transient error, and a client tries again.
	// The tries are one operation, timed from the first to the last.
	failed := true
	for try := 0; failed && try < clientTries; try++ {
		if try > 0 {
			cs.retried[c]++
		}
		if o.KNN {
			cur.(query.KNNCursor).KNN(o.P, o.K, nil)
		} else {
			cur.Query(o.Box, nil)
		}
		er, ok := cur.(query.ErrorReporter)
		failed = ok && er.LastError() != nil
	}
	done := time.Now()
	s := sample{knn: o.KNN, lat: done.Sub(latStart), failed: failed, traced: traced}
	if traced {
		cs.rec.inflight[c].Store(nil)
		rel := func(t time.Time) int64 { return int64(t.Sub(cs.rec.t0)) }
		root := span{Name: spanQuery, ID: reqID, Req: reqID, Start: rel(latStart), End: rel(done), Shard: -1}
		cs.rec.add(root)
		if send.After(latStart) {
			cs.rec.add(span{Name: spanWait, ID: cs.rec.id(), Parent: reqID, Req: reqID, Start: rel(latStart), End: rel(send), Shard: -1})
		}
		cs.rec.add(span{Name: spanRouter, ID: routerSpan, Parent: reqID, Req: reqID, Start: rel(call), End: rel(done), Shard: -1})
	}
	return s
}

// openLoop sends each client's requests on schedule regardless of how the
// system keeps up, and returns once every request has been sent and
// answered.
func (cs *clientSet) openLoop(streams [][]request) segment {
	start := time.Now()
	parts := make([]segment, len(streams))
	var wg sync.WaitGroup
	for c, reqs := range streams {
		wg.Add(1)
		go func(c int, reqs []request) {
			defer wg.Done()
			part := &parts[c]
			part.samples = make([]sample, 0, len(reqs))
			var busy busyPeriod
			due := 0 // requests [i, due) are due but unsent
			for i, r := range reqs {
				now := time.Since(start)
				if now < r.Due {
					time.Sleep(r.Due - now)
					now = time.Since(start)
				}
				for due < len(reqs) && reqs[due].Due <= now {
					due++
				}
				part.backlogMax = max(part.backlogMax, due-i-1)
				latStart, late := busy.begin(r.Due, now)
				s := cs.exec(c, &cs.ops[r.Op], start.Add(latStart), start.Add(now))
				busy.until = time.Since(start)
				s.late = late
				part.samples = append(part.samples, s)
				if i >= len(reqs)-len(reqs)/10 {
					part.tailLate += (now - r.Due) / time.Duration(len(reqs)/10)
				}
			}
		}(c, reqs)
	}
	wg.Wait()
	seg := segment{wall: time.Since(start)}
	for c, p := range parts {
		seg.samples = append(seg.samples, p.samples...)
		seg.sent += len(p.samples)
		seg.offered += len(streams[c])
		seg.backlogMax = max(seg.backlogMax, p.backlogMax)
		seg.tailLate = max(seg.tailLate, p.tailLate)
	}
	return seg
}

// closedLoop has every client send its stream back to back, wrapping
// around, for dur; a later call goes on where the last one stopped. It
// keeps every sampleEvery-th query as a sample.
func (cs *clientSet) closedLoop(streams [][]request, dur time.Duration, sampleEvery int) segment {
	if cs.next == nil {
		cs.next = make([]int, len(streams))
	}
	start := time.Now()
	parts := make([][]sample, len(streams))
	sent := make([]int, len(streams))
	var wg sync.WaitGroup
	for c, reqs := range streams {
		wg.Add(1)
		go func(c int, reqs []request) {
			defer wg.Done()
			i := cs.next[c]
			defer func() { cs.next[c] = i }()
			for ; time.Since(start) < dur; i++ {
				sent[c]++
				send := time.Now()
				s := cs.exec(c, &cs.ops[reqs[i%len(reqs)].Op], send, send)
				if i%sampleEvery == 0 || s.failed {
					parts[c] = append(parts[c], s)
				}
			}
		}(c, reqs)
	}
	wg.Wait()
	seg := segment{start: start, wall: time.Since(start)}
	for c, p := range parts {
		seg.samples = append(seg.samples, p...)
		seg.sent += sent[c]
	}
	return seg
}

// latencies splits a segment's answered queries by kind, in microseconds,
// and counts the failed ones.
func latencies(samples []sample) (rangeUS, knnUS []float64, failed int) {
	for _, s := range samples {
		switch {
		case s.failed:
			failed++
		case s.knn:
			knnUS = append(knnUS, us(s.lat))
		default:
			rangeUS = append(rangeUS, us(s.lat))
		}
	}
	return rangeUS, knnUS, failed
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
