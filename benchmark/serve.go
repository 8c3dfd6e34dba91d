package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"octopus/internal/core"
	"octopus/internal/dist"
	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/shard"
	"octopus/internal/sim"
)

// The serve workloads run the cmd/shardserver topology in one process:
// K shard servers over one sharded mesh, each behind its own TCP listener
// on 127.0.0.1, a control plane over a second, identically built mesh,
// and one caching router shared by the clients.
const (
	serveShards  = 4
	serveClients = 2
	serveTick    = 100 * time.Millisecond // writer at 10 Hz
	// blobRadiusFrac sizes the localized step: 5 % of the mesh diagonal
	// moves few enough vertices that the step publishes as a delta.
	blobRadiusFrac = 0.05
	// traceSlice is how often a traced run switches its wrappers off and
	// on again: the traced slices' median latency against the untraced
	// ones' is trace.overhead_frac, and interleaving keeps cache warm-up
	// and mesh drift out of the comparison.
	traceSlice = 500 * time.Millisecond
	// genLateLimit and tailLateLimit are the generator validity guard: a
	// run whose generator sent later than this at p95, or whose last tenth
	// of requests went out this far behind schedule on average (the
	// backlog was still growing), did not offer the load it claims.
	genLateLimit  = 5 * time.Millisecond
	tailLateLimit = 100 * time.Millisecond
)

// serveKind is what differs between the two serve workloads.
//
// A measured pass drives the clients closed loop, back to back, and takes
// every gated number from that. A traced pass is open loop at openRate
// and reports those latencies per layer, ungated, next to the budget that
// explains them: at these rates a client is busy 25 to 45 % of the time
// behind a heavy-tailed service, so whether the median request queues is
// a coin toss, and ten runs spread by 15 to 140 % (README.md, "Why the
// serve workloads gate closed-loop numbers").
type serveKind struct {
	openRate    float64 // traced pass: Poisson arrivals per second, over all clients
	pool        int     // distinct queries
	zipfS       float64 // 0 = every query distinct, in order
	fullStep    int     // every fullStep-th writer step moves the whole mesh; 0 = never
	sampleEvery int     // closed loop: keep every n-th latency sample
}

var (
	// 6000 distinct queries against a 4096-entry FIFO cache: a query comes
	// round again only after the cache has dropped it. 500 q/s is about
	// 40 % of the closed-loop saturation on the reference box.
	serveUniform = serveKind{openRate: 500, pool: 6000, fullStep: 10, sampleEvery: 1}
	// 512 queries fit the cache eight times over; Zipf(1.1) sends 58 % of
	// the traffic to the 16 hottest. Its closed loop answers several
	// hundred thousand queries a second from the cache; one latency
	// sample in 16 is plenty.
	serveHotspot = serveKind{openRate: 2000, pool: 512, zipfS: 1.1, sampleEvery: 16}
)

// serveTopo is one built topology.
type serveTopo struct {
	tsrvs   []*dist.TCPServer
	serveWG sync.WaitGroup
	smCtl   *shard.Mesh
	cl      *dist.Cluster
	router  *dist.Router
	eng     *dist.Engine
	stat    []*statOctopus // traced runs only
}

// buildServe brings the topology up over two pristine, identical meshes.
// With a recorder, every wire boundary is wrapped; without one the
// topology is exactly what cmd/shardserver and its driver assemble.
func buildServe(mServe, mCtl *mesh.Mesh, rec *recorder) (*serveTopo, error) {
	t := &serveTopo{}
	factory := func(sub *mesh.Mesh) query.ParallelKNNEngine {
		if rec == nil {
			return core.New(sub)
		}
		e := &statOctopus{Octopus: core.New(sub), rec: rec}
		t.stat = append(t.stat, e)
		return e
	}
	smServe, err := shard.NewMesh(mServe, serveShards, shard.Options{})
	if err != nil {
		return nil, err
	}
	var addrs []string
	shardOf := make(map[string]int)
	for i, p := range smServe.Partition().Parts {
		p.Mesh.EnableSnapshots() // publishes overlap in-flight queries
		var h dist.Handler = dist.NewServer(p, factory)
		if rec != nil {
			h = &tracedHandler{inner: h, rec: rec, shard: i}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, fmt.Errorf("listen for shard %d: %w", i, err)
		}
		ts := dist.NewTCPServer(ln, h)
		t.tsrvs = append(t.tsrvs, ts)
		shardOf[ts.Addr()] = i
		addrs = append(addrs, ts.Addr())
		t.serveWG.Add(1)
		go func() {
			defer t.serveWG.Done()
			if err := ts.Serve(); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintln(os.Stderr, "shard server:", err)
			}
		}()
	}
	if t.smCtl, err = shard.NewMesh(mCtl, serveShards, shard.Options{}); err != nil {
		t.close()
		return nil, err
	}
	var queryTr, ctlTr dist.Transport = &dist.TCPTransport{}, &dist.TCPTransport{}
	if rec != nil {
		queryTr = &tracedTransport{inner: queryTr, rec: rec, name: spanRPC, shardOf: shardOf}
		ctlTr = &tracedTransport{inner: ctlTr, rec: rec, name: spanCtlRPC, shardOf: shardOf}
	}
	t.cl = dist.NewControlPlane(t.smCtl, ctlTr, addrs)
	t.router = dist.NewRouter(queryTr, addrs, dist.RetryPolicy{})
	t.router.EnableCache(0)
	t.eng = dist.NewEngine(t.router, t.cl)
	if err := t.router.Refresh(); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// close stops the listeners and waits for the accept loops to end.
func (t *serveTopo) close() {
	if t.router != nil {
		t.router.Close()
	}
	if t.cl != nil {
		t.cl.Close()
	}
	for _, ts := range t.tsrvs {
		ts.Stop()
	}
	t.serveWG.Wait()
}

// writerLog is what the serve writer measured, one entry per step.
type writerLog struct {
	at                     []time.Time // when the step began
	publishMS, fnMS, moved []float64
	err                    error
}

// serveWriter publishes one deformation step per tick until stop closes:
// a localized blob step (a delta publish), or on every fullStep-th step a
// whole-mesh noise step (a full publish and a cache flush), then
// Engine.Step. The step cost excludes the deformer function itself.
type serveWriter struct {
	topo     *serveTopo
	blob     *sim.BlobDeformer
	noise    *sim.NoiseDeformer
	fullStep int
	step     int
	probe    deformProbe
	log      writerLog
}

func (w *serveWriter) stepOnce(full bool) {
	deform := w.blob.Step
	if full {
		deform = w.noise.Step
	}
	var fnDur time.Duration
	t0 := time.Now()
	w.log.at = append(w.log.at, t0)
	err := w.topo.cl.DeformErr(func(pos []geom.Vec3) {
		fnDur = w.probe.run(pos, func() { deform(w.step, pos) })
	})
	w.topo.eng.Step()
	w.log.publishMS = append(w.log.publishMS, ms(time.Since(t0)-fnDur))
	w.log.fnMS = append(w.log.fnMS, ms(fnDur))
	if w.probe.count {
		w.log.moved = append(w.log.moved, w.probe.moved)
	}
	if err == nil {
		err = w.topo.cl.Err() // Engine.Step latches maintenance failures here
	}
	if err != nil && w.log.err == nil {
		w.log.err = err
	}
	w.step++
}

// run ticks until stop closes; a step that overruns its tick delays the
// next one instead of bunching up.
func (w *serveWriter) run(stop <-chan struct{}) {
	timer := time.NewTimer(0)
	defer timer.Stop()
	for next := time.Now(); ; {
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		w.stepOnce(w.fullStep > 0 && w.step%w.fullStep == w.fullStep-1)
		if next = next.Add(serveTick); next.Before(time.Now()) {
			next = time.Now()
		}
		timer.Reset(time.Until(next))
	}
}

// serveStreams draws each client's requests for one segment. Distinct
// mode hands out the pool in order across clients (cursor continues from
// segment to segment); Zipf mode draws ranks.
type serveStreams struct {
	kind   serveKind
	nOps   int
	rng    *rand.Rand
	z      *zipf
	cursor int
}

func (s *serveStreams) nextOp() int {
	if s.z != nil {
		return s.z.draw(s.rng)
	}
	s.cursor++
	return (s.cursor - 1) % s.nOps
}

// open schedules Poisson arrivals at the workload's rate over dur, split
// evenly over the clients.
func (s *serveStreams) open(dur time.Duration) [][]request {
	streams := make([][]request, serveClients)
	for c := range streams {
		for _, due := range poissonSchedule(s.rng, s.kind.openRate/serveClients, dur) {
			streams[c] = append(streams[c], request{Due: due})
		}
	}
	// Ops are handed out in due order so the distinct stream stays in
	// pool order across clients.
	idx := make([]int, serveClients)
	for {
		c := -1
		for i := range streams {
			if idx[i] < len(streams[i]) && (c < 0 || streams[i][idx[i]].Due < streams[c][idx[c]].Due) {
				c = i
			}
		}
		if c < 0 {
			return streams
		}
		streams[c][idx[c]].Op = s.nextOp()
		idx[c]++
	}
}

// closed gives each client a back-to-back stream that covers the pool
// once between them before wrapping.
func (s *serveStreams) closed() [][]request {
	streams := make([][]request, serveClients)
	for i := 0; i < max(s.nOps, 4096); i++ {
		c := i % serveClients
		streams[c] = append(streams[c], request{Op: s.nextOp()})
	}
	return streams
}

func runServe(cfg runConfig, res *runResult, kind serveKind) error {
	t0 := time.Now()
	mServe, err := meshgen.Build(meshgen.NeuroL3, 1)
	if err != nil {
		return err
	}
	mCtl, err := meshgen.Build(meshgen.NeuroL3, 1)
	if err != nil {
		return err
	}
	res.Metrics["setup.dataset_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	nR, nK := poolSizes(kind.pool)
	ranges, knns := genPools(mCtl, nR, nK, cfg.Seed)
	ops := mixOps(ranges, knns)
	res.Metrics["setup.querygen_s"] = time.Since(t0).Seconds()

	streams := &serveStreams{kind: kind, nOps: len(ops), rng: newRand(cfg.Seed + 1)}
	if kind.zipfS > 0 {
		streams.z = newZipf(len(ops), kind.zipfS)
	}
	// A measured pass is a closed loop, a traced pass an open loop at the
	// workload's rate (see the comment on serveKind).
	var reqs [][]request
	if cfg.Trace {
		reqs = streams.open(cfg.dur(1))
	} else {
		reqs = streams.closed()
	}
	res.OpDigest = digest(ops, reqs...)

	var rec *recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	var topo *serveTopo
	teardown, err := measureSetup(res, func() (func(), error) {
		topo, err = buildServe(mServe, mCtl, rec)
		if err != nil {
			return nil, err
		}
		return topo.close, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	diag := mCtl.Bounds().Size().Len()
	writer := &serveWriter{
		topo:     topo,
		blob:     &sim.BlobDeformer{Radius: blobRadiusFrac * diag, Amplitude: sim.DefaultAmplitude, Seed: cfg.Seed},
		noise:    &sim.NoiseDeformer{Amplitude: sim.DefaultAmplitude, Frequency: 1.5, Seed: cfg.Seed},
		fullStep: kind.fullStep,
		probe:    deformProbe{count: cfg.Trace},
	}
	cs := &clientSet{ops: ops, rec: rec, retried: make([]int64, serveClients)}
	for c := 0; c < serveClients; c++ {
		cs.curs = append(cs.curs, topo.eng.NewCursor())
	}
	if err := serveWarmUp(topo, writer, cs, rec); err != nil {
		return err
	}

	// The measured window: writer and clients together.
	before := serveCounters(topo)
	useBefore := readUsage()
	stepsBefore := writer.step
	stop, writerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(writerDone)
		writer.run(stop)
	}()
	var seg segment // traced: the open loop; measured: the closed loop's windows together
	var ws []window
	var when [][2]time.Time // measured: from when to when each window ran
	if cfg.Trace {
		edge := res.ref.edge()
		stopToggle := rec.toggleEvery(traceSlice)
		seg = cs.openLoop(reqs)
		stopToggle()
		res.Metrics["box.slowdown"] = (edge + res.ref.edge()) / 2 / refNominalMS
	} else {
		// The clients pause at every window's edge for the reference
		// kernel; the writer keeps its tick.
		edge := res.ref.edge()
		for i := 0; i < windows; i++ {
			part := cs.closedLoop(reqs, cfg.dur(1)/windows, kind.sampleEvery)
			w := window{queries: float64(part.sent), wall: part.wall, refMS: []float64{edge, res.ref.edge()}}
			edge = w.refMS[1]
			w.rangeUS, w.knnUS, _ = latencies(part.samples)
			ws, when = append(ws, w), append(when, [2]time.Time{part.start, part.start.Add(part.wall)})
			seg.samples, seg.sent = append(seg.samples, part.samples...), seg.sent+part.sent
		}
	}
	close(stop)
	<-writerDone
	useAfter := readUsage()
	after := serveCounters(topo)
	if writer.log.err != nil {
		return fmt.Errorf("writer: %w", writer.log.err)
	}

	rangeUS, knnUS, failed := latencies(seg.samples)
	res.Attempted, res.Failed = int64(seg.sent), int64(failed) // a failed query is always kept as a sample
	res.verify(topo.eng.NewCursor(), topo.smCtl.Global(), ranges, knns, cfg.Seed)

	mt := res.Metrics
	steps := writer.log.publishMS[stepsBefore:]
	retried := cs.retried[0] + cs.retried[1] // warm-up included: it cannot err without failing the run
	fmt.Fprintf(cfg.Log, "  %d queries, %d writer steps, %d retried, %d failed, %d/%d verification mismatches (%d incomplete)\n",
		seg.sent, len(steps), retried, failed, res.Mismatch, res.Verified, res.Incomplete)
	if !cfg.Trace {
		for i, at := range writer.log.at[stepsBefore:] {
			for w := range when {
				if !at.Before(when[w][0]) && at.Before(when[w][1]) {
					ws[w].stepMS = append(ws[w].stepMS, steps[i])
				}
			}
		}
		res.setGated(ws)
		return nil
	}

	// Open loop: what the generator offered, how the latencies came out,
	// and whether the generator itself was valid.
	var lateUS []float64
	over := 0
	for _, s := range seg.samples {
		lateUS = append(lateUS, us(s.late))
		if s.failed || s.lat > overLimit {
			over++
		}
	}
	mt["client.open_range_p50_us"], mt["client.open_range_p95_us"] = quantile(rangeUS, 0.5), quantile(rangeUS, 0.95)
	mt["client.open_knn_p50_us"], mt["client.open_knn_p95_us"] = quantile(knnUS, 0.5), quantile(knnUS, 0.95)
	mt["client.range_p99_us"], mt["client.knn_p99_us"] = quantile(rangeUS, 0.99), quantile(knnUS, 0.99)
	mt["writer.step_p95_ms"] = quantile(steps, 0.95)
	mt["client.offered_qps"] = ratio(float64(seg.offered), cfg.dur(1).Seconds())
	mt["client.achieved_qps"] = ratio(float64(len(seg.samples)), seg.wall.Seconds())
	mt["client.gen_late_p95_us"] = quantile(lateUS, 0.95)
	mt["client.over_limit_frac"] = ratio(float64(over), float64(len(seg.samples)))
	mt["client.backlog_max"] = float64(seg.backlogMax)
	mt["client.retried"] = float64(retried)
	switch {
	case mt["client.gen_late_p95_us"] > us(genLateLimit):
		res.Invalid = fmt.Sprintf("generator ran late: p95 %.0f us", mt["client.gen_late_p95_us"])
	case seg.tailLate > tailLateLimit:
		res.Invalid = fmt.Sprintf("open-loop backlog still growing: the last tenth of the sends ran %v behind schedule", seg.tailLate)
	}
	fmt.Fprintf(cfg.Log, "  open loop: offered %.0f q/s, achieved %.0f q/s, generator p95 lateness %.0f us, max backlog %d\n",
		mt["client.offered_qps"], mt["client.achieved_qps"], mt["client.gen_late_p95_us"], seg.backlogMax)
	fmt.Fprintf(cfg.Log, "  open loop: range p50 %.0f p95 %.0f us, kNN p50 %.0f p95 %.0f us, over the %v limit %.4f\n",
		mt["client.open_range_p50_us"], mt["client.open_range_p95_us"], mt["client.open_knn_p50_us"], mt["client.open_knn_p95_us"],
		overLimit, mt["client.over_limit_frac"])

	res.setRuntime(useBefore, useAfter, len(seg.samples))
	serveLayerCounters(res, before, after, len(seg.samples), len(steps))
	mt["shard.imbalance"], mt["shard.ghost_frac"] = partitionShape(topo.smCtl)
	mt["sim.deform_fn_ms"], mt["mesh.dirty_frac"] = mean(writer.log.fnMS[stepsBefore:]), mean(writer.log.moved[stepsBefore:])
	mt["query.cache_get_ns"] = cacheGetNS(ranges)
	mt["trace.overhead_frac"] = tracedOverhead(seg.samples)

	spans := rec.take()
	res.setCore(statsSub(after.core, before.core), len(seg.samples))
	serveSpanMetrics(res, spans, statsSub(after.coreTraced, before.coreTraced))
	res.printBudget(cfg.Log)
	return writeSpans(cfg.tracePath(), spans)
}

// serveWarmUp lets lazy set-up finish before timing — connections dialed,
// metadata fetched, both publish paths taken once — and, in a traced run,
// doubles as the calibration that teaches the recorder the wire's op
// bytes.
func serveWarmUp(topo *serveTopo, w *serveWriter, cs *clientSet, rec *recorder) error {
	learn := func(name string, call func()) {
		if rec != nil {
			rec.learn(name, call)
		} else {
			call()
		}
	}
	var firstRange, firstKNN *op
	for i := range cs.ops {
		if o := &cs.ops[i]; o.KNN && firstKNN == nil {
			firstKNN = o
		} else if !o.KNN && firstRange == nil {
			firstRange = o
		}
	}
	var err error
	learn("meta", func() { err = topo.router.Refresh() })
	if err != nil {
		return err
	}
	for c := range cs.curs { // every client's cursor, every pooled connection
		learn("range", func() { cs.exec(c, firstRange, time.Now(), time.Now()) })
		learn("knn", func() { cs.exec(c, firstKNN, time.Now(), time.Now()) })
	}
	// The two halves of Engine.Step on their own first, so that each is
	// the first to use its op; then one whole-mesh and one localized step,
	// the full and the delta publish.
	learn("maintain", func() { err = topo.cl.MaintainToHead() })
	if err != nil {
		return err
	}
	learn("dirtylog", func() { err = topo.router.SyncCache() })
	if err != nil {
		return err
	}
	learn("publish_full", func() { w.stepOnce(true) })
	learn("publish_delta", func() { w.stepOnce(false) })
	// A pool that fits the result cache is in it before timing starts.
	for i := 0; i < len(cs.ops) && len(cs.ops) <= query.DefaultCacheSize; i++ {
		cs.exec(0, &cs.ops[i], time.Now(), time.Now())
	}
	if rec != nil {
		rec.take() // calibration spans are not part of the run
	}
	return w.log.err
}

// serveSnapshot holds the public counters the serve layer metrics are
// deltas of.
type serveSnapshot struct {
	router dist.RouterStats
	wire   dist.WireStats
	ctl    dist.WireStats
	cache  query.CacheStats
	// What the shard engines' cursors reported (traced runs only): over
	// every query, and over those that ran while the wrappers were on.
	core, coreTraced core.Stats
}

func serveCounters(t *serveTopo) serveSnapshot {
	s := serveSnapshot{router: t.router.Stats(), wire: t.router.WireStats(), ctl: t.cl.WireStats(), cache: t.router.CacheStats()}
	for _, e := range t.stat {
		all, traced := e.cursorStats()
		s.core.Add(all)
		s.coreTraced.Add(traced)
	}
	return s
}

// serveLayerCounters fills the layer metrics that are deltas of public
// counters over the measured window.
func serveLayerCounters(res *runResult, a, b serveSnapshot, queries, steps int) {
	m, q := res.Metrics, float64(queries)
	ra, rb := a.router, b.router
	d := func(from, to int64) float64 { return float64(to - from) }
	m["shard.range_fanout_per_q"] = ratio(d(ra.RangeFanout, rb.RangeFanout), d(ra.RangeQueries, rb.RangeQueries))
	m["shard.knn_scanned_per_q"] = ratio(d(ra.KNNScanned, rb.KNNScanned), d(ra.KNNQueries, rb.KNNQueries))
	m["shard.knn_widen_per_q"] = ratio(d(ra.Widenings, rb.Widenings), d(ra.KNNQueries, rb.KNNQueries))
	m["dist.skew_requeries"] = d(ra.SkewRequeries, rb.SkewRequeries)
	m["dist.retries"] = d(ra.Retries, rb.Retries)

	wire, wire0 := b.wire.Total(), a.wire.Total()
	m["dist.rpcs_per_q"] = ratio(float64(wire.Calls-wire0.Calls-(b.wire.DirtyLog.Calls-a.wire.DirtyLog.Calls)), q)
	m["dist.req_bytes_per_q"] = ratio(float64(wire.BytesSent-wire0.BytesSent), q)
	m["dist.resp_bytes_per_q"] = ratio(float64(wire.BytesRecv-wire0.BytesRecv), q)

	full := float64(b.ctl.Publish.Calls - a.ctl.Publish.Calls)
	delta := float64(b.ctl.PublishDelta.Calls - a.ctl.PublishDelta.Calls)
	m["dist.delta_frac"] = ratio(delta, full+delta)
	m["dist.publish_bytes_per_step"] = ratio(float64(b.ctl.PublishedBytes()-a.ctl.PublishedBytes()), float64(steps))

	hits, misses := float64(b.cache.Hits-a.cache.Hits), float64(b.cache.Misses-a.cache.Misses)
	m["query.cache_hit_frac"] = ratio(hits, hits+misses)
	m["query.cache_invalidated_per_step"] = ratio(float64(b.cache.Invalidated-a.cache.Invalidated), float64(steps))
	m["query.cache_flushes"] = float64(b.cache.Flushes - a.cache.Flushes)
	m["query.cache_evicted"] = float64(b.cache.Evicted - a.cache.Evicted)
}

// serveSpanMetrics derives the span-timed layer metrics and the
// blocking-path budget of the traced slices; engine is what the shard
// engines' cursors reported during those slices.
func serveSpanMetrics(res *runResult, spans []span, engine core.Stats) {
	m := res.Metrics
	unmatched := matchHandles(spans)
	byID := make(map[int64]*span, len(spans))
	kids := make(map[int64][][2]int64) // router span -> its RPC intervals
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		if s.Name == spanRPC && s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	sums := make(map[string]float64) // ns
	counts := make(map[string]float64)
	add := func(k string, ns int64) {
		sums[k] += float64(ns)
		counts[k]++
	}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case spanQuery:
			add("query", s.dur())
		case spanWait:
			add("wait", s.dur())
		case spanRouter:
			add("router", s.dur())
			add("router_self", selfNS(s.Start, s.End, kids[s.ID]))
		case spanRPC:
			if s.Op == "dirtylog" {
				add("synccache", s.dur())
				continue
			}
			add("rpc", s.dur())
			if s.Parent == 0 {
				unmatched++
			}
		case spanCtlRPC:
			add("ctl_"+s.Op, s.dur())
		case spanHandle:
			p := byID[s.Parent]
			switch {
			case s.Op == "publish_full" || s.Op == "publish_delta":
				add("handle_publish", s.dur())
			case s.Op == "range" || s.Op == "knn":
				add("handle_"+s.Op, s.dur())
			}
			if p != nil && p.Name == spanRPC && p.Parent != 0 {
				// On a client query's blocking path: the RPC's time splits
				// into the server's handling and the wire around it.
				add("path_handle", s.dur())
				add("wire", p.dur()-s.dur())
			}
		}
	}
	usPer := func(k string, n float64) float64 { return ratio(sums[k]/1e3, n) }
	q := counts["query"] // traced client queries
	m["dist.router_us_per_q"] = usPer("router", q)
	m["dist.router_self_us"] = usPer("router_self", q)
	m["dist.rpc_us"] = usPer("rpc", counts["rpc"])
	m["dist.handle_range_us"] = usPer("handle_range", counts["handle_range"])
	m["dist.handle_knn_us"] = usPer("handle_knn", counts["handle_knn"])
	m["dist.wire_us"] = usPer("wire", counts["wire"])
	// Control-plane costs are per writer step; every step publishes to all
	// K shards with one kind of publish.
	m["dist.publish_delta_ms"] = ratio(sums["ctl_publish_delta"]/1e6, counts["ctl_publish_delta"]/serveShards)
	m["dist.publish_full_ms"] = ratio(sums["ctl_publish_full"]/1e6, counts["ctl_publish_full"]/serveShards)
	stepsTraced := (counts["ctl_publish_delta"] + counts["ctl_publish_full"]) / serveShards
	m["dist.handle_publish_ms"] = ratio(sums["handle_publish"]/1e6, stepsTraced)
	m["dist.maintain_ms"] = ratio(sums["ctl_maintain"]/1e6, stepsTraced)
	m["dist.synccache_us"] = usPer("synccache", stepsTraced)
	m["trace.unmatched_spans"] = float64(unmatched)

	// Every row is a measurement of its own; what they leave of the traced
	// mean client.query is the residual — an RPC on a query's path whose
	// handle span was not found, or a layer nobody timed.
	m["budget.wait_us"] = usPer("wait", q)
	m["budget.router_self_us"] = m["dist.router_self_us"]
	m["budget.wire_us"] = usPer("wire", q)
	m["budget.probe_us"] = ratio(us(engine.SurfaceProbe), q)
	m["budget.walk_us"] = ratio(us(engine.DirectedWalk), q)
	m["budget.crawl_us"] = ratio(us(engine.Crawl), q)
	m["budget.server_self_us"] = usPer("path_handle", q) - ratio(us(engine.Total()), q)
	// Client bookkeeping: from the send to the call into the router.
	m["budget.other_us"] = usPer("query", q) - usPer("wait", q) - usPer("router", q)
	res.setBudget(usPer("query", q))
}

// cacheGetNS times ResultCache.GetRange over a hot pool that fits the
// cache: the pure cost a lookup adds to every query.
func cacheGetNS(ranges []geom.AABB) float64 {
	hot := ranges[:min(len(ranges), 512)]
	c := query.NewResultCache(0)
	for _, q := range hot {
		c.PutRange(q, []int32{1, 2, 3}, 0)
	}
	const rounds = 200
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, q := range hot {
			c.GetRange(q)
		}
	}
	return float64(time.Since(t0)) / float64(rounds*len(hot))
}
