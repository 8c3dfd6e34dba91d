package main

// The benchmark's fixed vocabulary: workload names, end-to-end metrics
// with their regression bounds, and per-layer metrics. BENCHMARK.json at
// the repository root states the same lists; TestBenchmarkJSON keeps the two
// in step. Later issues cite these names, so they do not change.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var workloadSpecs = []workloadSpec{
	{"sim-step", "paper mode, one thread on neuro-l5 (larger than the LLC): only core works, so crawl, layout and probe changes show here and nowhere else"},
	{"live-inproc", "Pipeline over a K=4 sharded engine under full-mesh writes, wire bypassed: shard-seam and maintenance changes show, wire and cache changes must not"},
	{"serve-uniform", "router over 4 TCP shard servers, distinct queries far beyond the result cache: encode, wire, server queue, engine and merge work, the cache only costs"},
	{"serve-hotspot", "same topology, Zipf queries from a pool that fits the cache: most answers are cache hits and the wire does little"},
}

// endToEnd lists what a user of the system sees; every workload reports
// every one of them (README.md says what each means where). A bound is the
// share of the parent's median a metric may worsen by.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"mem_mb", "MB", "lower", 0.05},
	// 1 - fail_frac: a relative bound on a value that is 1 on a healthy
	// run is the issue's absolute +0.002 on fail_frac, which itself is 0
	// there and can carry no relative bound.
	{"ok_frac", "ratio", "higher", 0.002},
	{"range_p50_us", "us", "lower", 0.25},
	{"range_p95_us", "us", "lower", 0.25},
	{"knn_p50_us", "us", "lower", 0.25},
	{"knn_p95_us", "us", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"step_ms", "ms", "lower", 0.25},
}

func layer(name, unit, better string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: better}
}

// perLayer lists the outside-in layer metrics, prefix = module. A layer
// that does no work on a workload reports 0 there.
var perLayer = []metricSpec{
	layer("core.probe_us_per_q", "us", "lower"),
	layer("core.walk_us_per_q", "us", "lower"),
	layer("core.crawl_us_per_q", "us", "lower"),
	layer("core.probe_checked_per_q", "count", "lower"),
	layer("core.walk_visited_per_q", "count", "lower"),
	layer("core.crawl_visited_per_q", "count", "lower"),
	layer("core.walks_frac", "ratio", "lower"),
	layer("core.visited_per_result", "ratio", "lower"),
	layer("linearscan.query_us", "us", "lower"),
	layer("kdtree.step_ms", "ms", "lower"),
	layer("kdtree.query_us", "us", "lower"),
	layer("shard.range_fanout_per_q", "count", "lower"),
	layer("shard.knn_scanned_per_q", "count", "lower"),
	layer("shard.knn_widen_per_q", "count", "lower"),
	layer("shard.imbalance", "ratio", "lower"),
	layer("shard.ghost_frac", "ratio", "lower"),
	layer("shard.route_self_us", "us", "lower"),
	layer("mesh.deform_overhead_ms", "ms", "lower"),
	layer("mesh.dirty_frac", "ratio", "lower"),
	layer("sim.deform_fn_ms", "ms", "lower"),
	layer("query.pipeline_steps_per_s", "1/s", "higher"),
	layer("query.pipeline_drain_ms", "ms", "lower"),
	layer("query.stale_mean_epochs", "count", "lower"),
	layer("maintain.ticks", "count", "higher"),
	layer("maintain.slices", "count", "lower"),
	layer("maintain.fallback_queries", "count", "lower"),
	layer("maintain.slice_ms", "ms", "lower"),
	layer("query.cache_hit_frac", "ratio", "higher"),
	layer("query.cache_invalidated_per_step", "count", "lower"),
	layer("query.cache_flushes", "count", "lower"),
	layer("query.cache_evicted", "count", "lower"),
	layer("query.cache_get_ns", "ns", "lower"),
	layer("dist.router_us_per_q", "us", "lower"),
	layer("dist.router_self_us", "us", "lower"),
	layer("dist.rpc_us", "us", "lower"),
	layer("dist.rpcs_per_q", "count", "lower"),
	layer("dist.handle_range_us", "us", "lower"),
	layer("dist.handle_knn_us", "us", "lower"),
	layer("dist.wire_us", "us", "lower"),
	layer("dist.req_bytes_per_q", "B", "lower"),
	layer("dist.resp_bytes_per_q", "B", "lower"),
	layer("dist.skew_requeries", "count", "lower"),
	layer("dist.retries", "count", "lower"),
	layer("dist.publish_delta_ms", "ms", "lower"),
	layer("dist.publish_full_ms", "ms", "lower"),
	layer("dist.handle_publish_ms", "ms", "lower"),
	layer("dist.maintain_ms", "ms", "lower"),
	layer("dist.synccache_us", "us", "lower"),
	layer("dist.publish_bytes_per_step", "B", "lower"),
	layer("dist.delta_frac", "ratio", "higher"),
	layer("runtime.cpu_us_per_q", "us", "lower"),
	layer("runtime.allocs_per_q", "count", "lower"),
	layer("runtime.gc_pause_ms", "ms", "lower"),
	layer("runtime.gc_cycles", "count", "lower"),
	layer("client.offered_qps", "1/s", "higher"),
	layer("client.achieved_qps", "1/s", "higher"),
	layer("client.gen_late_p95_us", "us", "lower"),
	layer("client.over_limit_frac", "ratio", "lower"),
	layer("client.backlog_max", "count", "lower"),
	layer("client.open_range_p50_us", "us", "lower"),
	layer("client.open_range_p95_us", "us", "lower"),
	layer("client.open_knn_p50_us", "us", "lower"),
	layer("client.open_knn_p95_us", "us", "lower"),
	layer("client.retried", "count", "lower"),
	layer("client.range_p99_us", "us", "lower"),
	layer("client.knn_p99_us", "us", "lower"),
	layer("writer.step_p95_ms", "ms", "lower"),
	layer("setup.dataset_s", "s", "lower"),
	layer("setup.querygen_s", "s", "lower"),
	layer("box.slowdown", "ratio", "lower"),
	layer("verify.incomplete", "count", "lower"),
	layer("trace.overhead_frac", "ratio", "lower"),
	layer("trace.residual_frac", "ratio", "lower"),
	layer("trace.unmatched_spans", "count", "lower"),
	layer("budget.total_us", "us", "lower"),
	layer("budget.wait_us", "us", "lower"),
	layer("budget.router_self_us", "us", "lower"),
	layer("budget.wire_us", "us", "lower"),
	layer("budget.server_self_us", "us", "lower"),
	layer("budget.probe_us", "us", "lower"),
	layer("budget.walk_us", "us", "lower"),
	layer("budget.crawl_us", "us", "lower"),
	layer("budget.other_us", "us", "lower"),
}

// budgetRows are the rows of the blocking-path table, in print order;
// they sum to budget.total_us within trace.residual_frac.
var budgetRows = []string{
	"budget.wait_us", "budget.router_self_us", "budget.wire_us", "budget.server_self_us",
	"budget.probe_us", "budget.walk_us", "budget.crawl_us", "budget.other_us",
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}
