package bench

// MetricDef names one metric, its unit and which direction is better. The two
// tables below are the single source for BENCHMARK.json (a test compares them)
// and for what a run prints.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// Workloads lists the workload names in run order.
var Workloads = []string{"pop_sweep", "fleet_bulk", "wire_refine", "ingest_mixed"}

// EndToEnd are the six gated metrics, the same on every workload.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "op/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_kb_per_op", "KB", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// PerLayer are the ungated layer metrics of the traced run. Every workload
// prints all of them; a layer the workload never enters reads 0.
var PerLayer = []MetricDef{
	// every workload
	{"bench.gen_s", "s", "lower"},
	{"bench.trace_overhead_share", "ratio", "lower"},
	{"bench.segment_cv", "ratio", "lower"},
	{"bench.op_ms_p99", "ms", "lower"},
	{"bench.op_samples", "count", "higher"},
	{"bench.peak_rss_mb", "MB", "lower"},
	{"bench.gc_cycles", "count", "lower"},
	{"bench.gc_pause_ms", "ms", "lower"},

	// pop_sweep
	{"core.decide_us_p50.full360", "us", "lower"},
	{"core.decide_us_p50.tiled_sched", "us", "lower"},
	{"baseline.decide_us_p50", "us", "lower"},
	{"core.decide_calls_per_op", "count", "lower"},
	{"core.decide_share", "ratio", "lower"},
	{"player.engine_ms_per_op", "ms", "lower"},
	{"popsim.sample_us_per_member", "us", "lower"},
	{"popsim.fold_us_per_op", "us", "lower"},
	{"popsim.summary_ms", "ms", "lower"},
	{"geom.plane_lookup_ns", "ns", "lower"},
	{"quality.score_row_ns", "ns", "lower"},
	{"stats.sketch_add_ns", "ns", "lower"},
	{"geom.table_build_ms", "ms", "lower"},
	{"video.generate_ms", "ms", "lower"},
	{"quality.table_build_ms", "ms", "lower"},

	// fleet_bulk
	{"balancer.added_cpu_us_per_tile", "us", "lower"},
	{"balancer.route_added_ms", "ms", "lower"},
	{"store.append_frame_ns_per_tile", "ns", "lower"},
	{"store.build_ms", "ms", "lower"},
	{"proto.read_frame_us_per_tile", "us", "lower"},
	{"proto.payload_checksum_us_per_tile", "us", "lower"},
	{"server.direct_cpu_us_per_tile", "us", "lower"},
	{"wire.payload_mb_per_s", "MB/s", "higher"},
	{"wire.unattributed_us_per_tile", "us", "lower"},
	{"server.shed_items", "count", "lower"},
	{"server.sent_minus_received", "count", "lower"},

	// wire_refine
	{"server.handshake_ms_p50", "ms", "lower"},
	{"server.handshake_share", "ratio", "lower"},
	{"video.manifest_encode_ms", "ms", "lower"},
	{"video.manifest_decode_ms", "ms", "lower"},
	{"proto.write_request_us_p50", "us", "lower"},
	{"proto.parse_request_us", "us", "lower"},
	{"proto.request_bytes_p50", "B", "lower"},
	{"server.derived_cpu_us_per_round", "us", "lower"},
	{"server.tiles_per_round", "count", "lower"},
	{"server.dedup_skips_per_round", "count", "higher"},
	{"server.overrun_tiles_per_round", "count", "lower"},

	// ingest_mixed
	{"ingest.push_ms_p50", "ms", "lower"},
	{"ingest.fold_us_per_event", "us", "lower"},
	{"ingest.http_overhead_ms", "ms", "lower"},
	{"ingest.poll_ms_p50", "ms", "lower"},
	{"ingest.rollup_build_ms", "ms", "lower"},
	{"ingest.rollup_json_kb", "KB", "lower"},
	{"ingest.snapshot_write_ms", "ms", "lower"},
	{"ingest.watch_scan_ms_per_file", "ms", "lower"},
	{"ingest.snapshot_read_ms", "ms", "lower"},
}

// Metric is one printed value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
