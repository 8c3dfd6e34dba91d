package bench

import (
	"fmt"
	"sync"
	"time"

	"octopus/internal/core"
	"octopus/internal/dist"
	"octopus/internal/geom"
	"octopus/internal/maintain"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/shard"
	"octopus/internal/sim"
	"octopus/internal/workload"
)

// Dist is the wire-boundary serving experiment (DESIGN.md §15): the
// stateless router tier over shard servers, compared answer-for-answer
// against the in-process shard.Router on an identically built and
// identically deformed mesh.
//
// One table, three rows:
//
//   - loopback/static and tcp/static run the same seeded range + kNN
//     workload over both transports on the pristine mesh;
//   - loopback/deforming interleaves publish/maintain steps with queries,
//     so every step's first query crosses the epoch-skew gate (the
//     skew-requeries cell counts exactly one re-run per step).
//
// The mismatch, fan-out, widening and skew counters are pure functions of
// the dataset, the shard cut and the workload seed — machine-independent
// and CI-gated (mismatches must stay 0: the distributed tier is bit-equal
// or it is broken). The rpc-mean latency column is wall clock and only
// indicative.
func Dist(cfg Config) ([]*Table, error) {
	return distTables(cfg, meshgen.NeuroL2, 4)
}

// distTables is the parameterized body of Dist.
func distTables(cfg Config, ds meshgen.Dataset, shards int) ([]*Table, error) {
	t := &Table{
		ID:    "dist-wire",
		Title: fmt.Sprintf("Distributed serving on %s (K=%d): wire-boundary router vs in-process, both transports", ds, shards),
		Columns: []string{
			"transport/mode", "queries", "range-fanout[shards/q]", "knn-scan[shards/q]",
			"widenings/q", "skew-requeries", "retries", "mismatches", "rpc-mean[us]",
		},
	}

	// Two identical meshes: the in-process reference router answers over
	// one, the cluster's shard servers own the other. Bit-equality between
	// the two sides is the whole point, so they must not share storage.
	factory := func(m *mesh.Mesh) query.ParallelKNNEngine { return core.New(m) }
	m1, err := meshgen.Build(ds, cfg.Scale)
	if err != nil {
		return nil, err
	}
	sm1, err := shard.NewMesh(m1, shards, shard.Options{})
	if err != nil {
		return nil, err
	}
	ref := shard.NewRouter(sm1, factory)

	m2, err := meshgen.Build(ds, cfg.Scale)
	if err != nil {
		return nil, err
	}
	sm2, err := shard.NewMesh(m2, shards, shard.Options{})
	if err != nil {
		return nil, err
	}
	cl := dist.NewCluster(sm2, factory)
	defer cl.Close()

	nQ := cfg.Steps * cfg.QueriesPerStep
	if nQ < 32 {
		nQ = 32
	}
	if nQ > 256 {
		nQ = 256
	}

	// Static rows: same pristine geometry, same seeded workload, one row
	// per transport (fresh router each, so the counters are per-row).
	lb := dist.NewLoopback()
	addrs := cl.ServeLoopback(lb)
	if err := distStaticRow(t, "loopback/static", cfg, m1, ref, lb, addrs, nQ); err != nil {
		return nil, err
	}
	cl.Close()
	addrs, err = cl.ServeTCP()
	if err != nil {
		return nil, err
	}
	if err := distStaticRow(t, "tcp/static", cfg, m1, ref, &dist.TCPTransport{}, addrs, nQ); err != nil {
		return nil, err
	}
	cl.Close()

	// Deforming row, over loopback: each step publishes a deformation to
	// both sides, maintains both, then queries through the (now stale)
	// router metadata — the coherence gate must re-pin the new epoch and
	// the answers must stay bit-equal.
	lb = dist.NewLoopback()
	addrs = cl.ServeLoopback(lb)
	if err := distDeformRow(t, cfg, ds, m1, sm1, ref, m2, cl, lb, addrs); err != nil {
		return nil, err
	}

	t.Notes = append(t.Notes,
		"mismatches = distributed answers differing from the in-process shard.Router (bit-equality: sorted range ids, (dist,id)-ordered kNN); must be 0",
		"fan-out/scan/widening/skew counters are workload-deterministic (fixed seed, no wall clock) and CI-gated",
		"skew-requeries in the deforming row = one per published step: the first query after each publish crosses the epoch gate",
		"rpc-mean = wall clock per distributed query (fan-out included), indicative only — loopback measures protocol overhead, tcp adds real socket hops",
	)

	pub, err := distPublishTable(cfg, ds, shards)
	if err != nil {
		return nil, err
	}
	serve, err := distServeTable(cfg, ds, shards)
	if err != nil {
		return nil, err
	}
	return []*Table{t, pub, serve}, nil
}

// distPublishTable measures the publish wire cost (DESIGN.md §16): two
// identical clusters driven through identical localized deformation
// steps, one forced onto full-array publishes and one shipping dirty
// deltas. Published bytes are payload bytes (transport-independent and
// deterministic — the deformer and partition are pure functions of the
// seed), and both clusters' sub-mesh positions are compared against an
// in-process reference deformed in lockstep: the delta path must be a
// pure compression, never a different state.
func distPublishTable(cfg Config, ds meshgen.Dataset, shards int) (*Table, error) {
	t := &Table{
		ID:    "dist-publish",
		Title: fmt.Sprintf("Publish wire cost on %s (K=%d): dirty deltas vs full position arrays, localized deformer", ds, shards),
		Columns: []string{
			"mode", "steps", "publish-rpcs", "publish-bytes/step", "reduction-vs-full[x]", "pos-mismatches",
		},
	}
	steps := cfg.Steps
	if steps < 2 {
		steps = 2
	}

	// The in-process reference all published states are compared against.
	mRef, err := meshgen.Build(ds, cfg.Scale)
	if err != nil {
		return nil, err
	}
	smRef, err := shard.NewMesh(mRef, shards, shard.Options{})
	if err != nil {
		return nil, err
	}

	blob := distBlobFor(mRef, cfg.Seed)
	for step := 0; step < steps; step++ {
		smRef.Deform(func(pos []geom.Vec3) { blob.Step(step, pos) })
	}

	run := func(full bool) (dist.WireStats, int, error) {
		m, err := meshgen.Build(ds, cfg.Scale)
		if err != nil {
			return dist.WireStats{}, 0, err
		}
		sm, err := shard.NewMesh(m, shards, shard.Options{})
		if err != nil {
			return dist.WireStats{}, 0, err
		}
		cl := dist.NewCluster(sm, func(m *mesh.Mesh) query.ParallelKNNEngine { return core.New(m) })
		defer cl.Close()
		cl.FullPublish = full
		cl.ServeLoopback(dist.NewLoopback())
		d := distBlobFor(m, cfg.Seed)
		for step := 0; step < steps; step++ {
			if err := cl.DeformErr(func(pos []geom.Vec3) { d.Step(step, pos) }); err != nil {
				return dist.WireStats{}, 0, err
			}
		}
		mismatches := 0
		for s, p := range sm.Partition().Parts {
			ref := smRef.Partition().Parts[s].Mesh.Positions()
			got := p.Mesh.Positions()
			for l := range got {
				if got[l] != ref[l] {
					mismatches++
				}
			}
		}
		return cl.WireStats(), mismatches, nil
	}

	wFull, mmFull, err := run(true)
	if err != nil {
		return nil, err
	}
	wDelta, mmDelta, err := run(false)
	if err != nil {
		return nil, err
	}

	fullPerStep := float64(wFull.PublishedBytes()) / float64(steps)
	deltaPerStep := float64(wDelta.PublishedBytes()) / float64(steps)
	reduction := 0.0
	if deltaPerStep > 0 {
		reduction = fullPerStep / deltaPerStep
	}
	t.AddRow("full/blob", steps, wFull.Publish.Calls+wFull.PublishDelta.Calls, fullPerStep, 1.0, mmFull)
	t.AddRow("delta/blob", steps, wDelta.Publish.Calls+wDelta.PublishDelta.Calls, deltaPerStep, reduction, mmDelta)
	t.Notes = append(t.Notes,
		"publish-bytes/step = request payload bytes of Publish + PublishDelta RPCs (framing excluded): deterministic, CI-gated",
		"pos-mismatches compares every shard sub-mesh position against an in-process reference deformed in lockstep; must be 0 on both rows",
		"the blob deformer moves a localized neighborhood per step, so the dirty delta enumerates the movers; reduction-vs-full is gated >= 5x",
	)
	return t, nil
}

// distServeTable measures the query-serving hot paths added in §16: the
// router-side result cache (a repeated workload's second pass must cost
// zero network traffic) and the multiplexed wire under concurrent
// routers (many in-flight RPCs per connection, zero wrong answers).
func distServeTable(cfg Config, ds meshgen.Dataset, shards int) (*Table, error) {
	t := &Table{
		ID:    "dist-serve",
		Title: fmt.Sprintf("Serving hot paths on %s (K=%d): cached repeat pass, concurrent routers on the multiplexed wire", ds, shards),
		Columns: []string{
			"mode", "queries", "cache-hits", "net-bytes", "mismatches", "mean[us]",
		},
	}

	factory := func(m *mesh.Mesh) query.ParallelKNNEngine { return core.New(m) }
	m1, err := meshgen.Build(ds, cfg.Scale)
	if err != nil {
		return nil, err
	}
	sm1, err := shard.NewMesh(m1, shards, shard.Options{})
	if err != nil {
		return nil, err
	}
	ref := shard.NewRouter(sm1, factory)

	m2, err := meshgen.Build(ds, cfg.Scale)
	if err != nil {
		return nil, err
	}
	sm2, err := shard.NewMesh(m2, shards, shard.Options{})
	if err != nil {
		return nil, err
	}
	cl := dist.NewCluster(sm2, factory)
	defer cl.Close()

	nQ := cfg.Steps * cfg.QueriesPerStep
	if nQ < 32 {
		nQ = 32
	}
	if nQ > 128 {
		nQ = 128
	}
	gen := workload.NewGenerator(m1, 4096, cfg.Seed+2)
	queries := gen.UniformQueries(nQ, cfg.Selectivity)
	probes := gen.KNNQueries(nQ/4, 4, 16, 0.05)

	// Cached row, over loopback: pass 1 fills the cache, pass 2 must be
	// answered entirely from it — the wire counters cannot move.
	lb := dist.NewLoopback()
	addrs := cl.ServeLoopback(lb)
	rt := dist.NewRouter(lb, addrs, dist.RetryPolicy{})
	rt.EnableCache(0)
	var elapsed time.Duration
	mismatches, el, err := distCompare(rt, ref, m1, queries, probes)
	if err != nil {
		return nil, err
	}
	elapsed += el
	before := rt.WireStats().Total()
	mm2, el, err := distCompare(rt, ref, m1, queries, probes)
	if err != nil {
		return nil, err
	}
	elapsed += el
	mismatches += mm2
	after := rt.WireStats().Total()
	hitBytes := (after.BytesSent + after.BytesRecv) - (before.BytesSent + before.BytesRecv)
	nTotal := 2 * (len(queries) + len(probes))
	t.AddRow("cached/repeat", nTotal, rt.Stats().CacheHits, hitBytes, mismatches,
		float64(elapsed.Microseconds())/float64(nTotal))
	rt.Close()
	cl.Close()

	// Concurrent row, over TCP: G routers share the cluster, every RPC
	// multiplexed over pooled connections; answers are compared against
	// the in-process reference after the fan-in.
	addrs, err = cl.ServeTCP()
	if err != nil {
		return nil, err
	}
	const concurrent = 4
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		cmm      int
		cbytes   int64
		cElapsed time.Duration
		firstErr error
	)
	for g := 0; g < concurrent; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			grt := dist.NewRouter(&dist.TCPTransport{}, addrs, dist.RetryPolicy{})
			defer grt.Close()
			mm, el, err := distCompare(grt, ref, m1, queries, probes)
			w := grt.WireStats().Total()
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			cmm += mm
			cbytes += w.BytesSent + w.BytesRecv
			cElapsed += el
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	cq := concurrent * (len(queries) + len(probes))
	t.AddRow("concurrent/tcp", cq, 0, cbytes, cmm, float64(cElapsed.Microseconds())/float64(cq))
	t.Notes = append(t.Notes,
		"cached/repeat: net-bytes = wire traffic during the repeat pass — a correct cache answers it for exactly 0 bytes (CI-gated), cache-hits = the repeat pass's query count",
		"concurrent/tcp: every router's answers compared against the in-process reference after the fan-in; mismatches must be 0 (CI-gated)",
		"mean[us] is wall clock, indicative only; the deterministic cells are cache-hits, net-bytes and mismatches",
	)
	return t, nil
}

// distBlobFor sizes a localized blob deformer to m's bounds: a small
// fraction of the mesh moves per step, so the dirty tracker enumerates
// the movers and every publish travels as a delta.
func distBlobFor(m *mesh.Mesh, seed int64) *sim.BlobDeformer {
	b := m.Bounds()
	ext := b.Max.X - b.Min.X
	if e := b.Max.Y - b.Min.Y; e > ext {
		ext = e
	}
	if e := b.Max.Z - b.Min.Z; e > ext {
		ext = e
	}
	return &sim.BlobDeformer{Radius: 0.15 * ext, Amplitude: 0.01 * ext, Seed: seed}
}

// distStaticRow runs the seeded workload over one transport and appends
// the row: counters from the router, mismatches from comparing every
// answer against the in-process reference.
func distStaticRow(t *Table, label string, cfg Config, m1 *mesh.Mesh, ref *shard.Router, tr dist.Transport, addrs []string, nQ int) error {
	rt := dist.NewRouter(tr, addrs, dist.RetryPolicy{})
	defer rt.Close()
	if err := rt.Refresh(); err != nil {
		return err
	}
	gen := workload.NewGenerator(m1, 4096, cfg.Seed)
	queries := gen.UniformQueries(nQ, cfg.Selectivity)
	probes := gen.KNNQueries(nQ/4, 4, 16, 0.05)

	mismatches, elapsed, err := distCompare(rt, ref, m1, queries, probes)
	if err != nil {
		return err
	}
	distAddRow(t, label, rt.Stats(), len(queries)+len(probes), mismatches, elapsed)
	return nil
}

// distDeformRow drives cfg.Steps published deformation steps on both
// sides in lockstep, querying after each publish+maintain.
func distDeformRow(t *Table, cfg Config, ds meshgen.Dataset, m1 *mesh.Mesh, sm1 *shard.Mesh, ref *shard.Router, m2 *mesh.Mesh, cl *dist.Cluster, tr dist.Transport, addrs []string) error {
	deformer, err := sim.DefaultDeformer(ds, sim.DefaultAmplitude)
	if err != nil {
		return err
	}
	rt := dist.NewRouter(tr, addrs, dist.RetryPolicy{})
	defer rt.Close()
	// Warm the metadata at the pre-deform epoch so every published step
	// below is first seen through the skew gate.
	if err := rt.Refresh(); err != nil {
		return err
	}
	gen := workload.NewGenerator(m1, 4096, cfg.Seed+1)

	var mismatches int
	var elapsed time.Duration
	var queries int
	for step := 0; step < cfg.Steps; step++ {
		// All mutation goes through the Deform closures: the cluster's
		// global mesh is dirty-tracked, and in-place edits between steps
		// would corrupt its diff baseline (see dist.Cluster.Deform).
		sm1.Deform(func(pos []geom.Vec3) { deformer.Step(step, pos) })
		if err := cl.DeformErr(func(pos []geom.Vec3) { deformer.Step(step, pos) }); err != nil {
			return err
		}
		maintain.NewScheduler(ref.MaintainStates(), maintain.Options{}).Drain() // Step would publish again
		if err := cl.MaintainToHead(); err != nil {
			return err
		}
		qs := gen.UniformQueries(cfg.QueriesPerStep, cfg.Selectivity)
		ps := gen.KNNQueries(cfg.QueriesPerStep/4+1, 4, 16, 0.05)
		mm, el, err := distCompare(rt, ref, m1, qs, ps)
		if err != nil {
			return err
		}
		mismatches += mm
		elapsed += el
		queries += len(qs) + len(ps)
	}
	distAddRow(t, "loopback/deforming", rt.Stats(), queries, mismatches, elapsed)
	return nil
}

// distCompare answers every query through the distributed router, timing
// it, and through the in-process reference, counting answers that differ.
// The reference answers through a cursor of this call's own, so
// concurrent callers may share one reference router.
func distCompare(rt *dist.Router, refRouter *shard.Router, m1 *mesh.Mesh, queries []geom.AABB, probes []query.KNNQuery) (mismatches int, elapsed time.Duration, err error) {
	ref := refRouter.NewCursor().(*shard.Cursor)
	defer ref.Close()
	var got, want []int32
	for _, q := range queries {
		start := time.Now()
		got, _, err = rt.Range(q, got[:0])
		elapsed += time.Since(start)
		if err != nil {
			return 0, 0, err
		}
		want = ref.Query(q, want[:0])
		if query.Diff(got, want) != "" {
			mismatches++
		}
	}
	for _, p := range probes {
		start := time.Now()
		got, _, err = rt.KNN(p.P, p.K, got[:0])
		elapsed += time.Since(start)
		if err != nil {
			return 0, 0, err
		}
		want = ref.KNN(p.P, p.K, want[:0])
		if len(got) != len(want) {
			mismatches++
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				mismatches++
				break
			}
		}
	}
	return mismatches, elapsed, nil
}

// distAddRow folds a router's counters into one table row.
func distAddRow(t *Table, label string, st dist.RouterStats, queries, mismatches int, elapsed time.Duration) {
	rangeFanout, knnScan, widenings := 0.0, 0.0, 0.0
	if st.RangeQueries > 0 {
		rangeFanout = float64(st.RangeFanout) / float64(st.RangeQueries)
	}
	if st.KNNQueries > 0 {
		knnScan = float64(st.KNNScanned) / float64(st.KNNQueries)
		widenings = float64(st.Widenings) / float64(st.KNNQueries)
	}
	rpcMean := 0.0
	if queries > 0 {
		rpcMean = float64(elapsed.Microseconds()) / float64(queries)
	}
	t.AddRow(label, queries, rangeFanout, knnScan, widenings,
		st.SkewRequeries, st.Retries, mismatches, rpcMean)
}
