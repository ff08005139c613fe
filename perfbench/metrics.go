package main

// metricSpec names one reported metric and its unit. The two tables
// below are the end_to_end and per_layer lists of BENCHMARK.json, in
// order; a test keeps them equal.
type metricSpec struct {
	name, unit string
}

// endToEnd is reported by every untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"release_s", "s"},
	{"release_bytes", "bytes"},
	{"release_peak_rss_mb", "MB"},
	{"rel_error_median", "ratio"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"server_cpu_us_per_req", "us"},
	{"server_peak_rss_mb", "MB"},
}

// perLayer is reported by every traced run. A layer the workload does
// not exercise (the cluster layers on a single node, the answer cache
// behind a router) reads 0.
var perLayer = []metricSpec{
	{"geom.csv_scan_s", "s"},
	{"grid.histogram_s", "s"},
	{"core.ag_build_s", "s"},
	{"noise.samples", "count"},
	{"noise.laplace_ns", "ns"},
	{"codec.encode_s", "s"},
	{"codec.encode_bytes", "bytes"},
	{"atomicfile.write_s", "s"},
	{"codec.decode_s", "s"},
	{"mmapfile.map_s", "s"},
	{"dpgrid.cli_overhead_s", "s"},
	{"grid.query_ns", "ns"},
	{"pool.batch_us", "us"},
	{"pool.overhead_ratio", "ratio"},
	{"cache.hit_ratio", "ratio"},
	{"dpserve.answer_us", "us"},
	{"dpserve.rtt_unloaded_us", "us"},
	{"dpserve.http_json_us", "us"},
	{"dpserve.req_bytes", "bytes"},
	{"dpserve.resp_bytes", "bytes"},
	{"dpserve.cpu_user_us_per_req", "us"},
	{"dpserve.cpu_sys_us_per_req", "us"},
	{"dpserve.ctx_switches_per_req", "count"},
	{"shard.fanout_mean", "count"},
	{"shard.materializations_timed", "count"},
	{"cluster.router_us", "us"},
	{"cluster.backend_us", "us"},
	{"cluster.fanout_backends_mean", "count"},
	{"cluster.backend_conns_per_kreq", "count"},
	{"cluster.retries", "count"},
	{"cluster.failovers", "count"},
	{"cluster.partials", "count"},
	{"driver.conns_opened", "count"},
	{"trace.overhead_pct", "%"},
}
