package harness

// PerLayer lists the per-layer metrics of the traced run; the module name is
// the prefix. Every traced run prints all of them: a layer the workload does
// not exercise reads 0, which is what it spent there. BENCHMARK.json repeats
// the list and a unit test keeps the two in step; benchmarks/README.md says
// how each is measured and which end-to-end metric it should move.
var PerLayer = []Metric{
	{Name: "webui.transport_ms", Unit: "ms", Better: "lower"},
	{Name: "webui.self_ms", Unit: "ms", Better: "lower"},
	{Name: "webui.resp_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "webui.explore_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "webui.sql_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "webui.append_p99_ms", Unit: "ms", Better: "lower"},

	{Name: "serving.admission_self_us", Unit: "us", Better: "lower"},
	{Name: "serving.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serving.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serving.lru_get_us", Unit: "us", Better: "lower"},
	{Name: "serving.lru_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serving.lru_evictions", Unit: "count", Better: "lower"},

	{Name: "obs.hot_overhead_ratio", Unit: "ratio", Better: "lower"},

	{Name: "sqlengine.parse_us", Unit: "us", Better: "lower"},
	{Name: "sqlengine.self_ms", Unit: "ms", Better: "lower"},
	{Name: "sqlengine.t1_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sqlengine.t2_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sqlengine.t2sel_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sqlengine.fullrow_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sqlengine.t3_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sqlengine.t4_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sqlengine.rows_scanned_per_row_returned", Unit: "ratio", Better: "lower"},

	{Name: "tasks.t5_privacy_ms", Unit: "ms", Better: "lower"},
	{Name: "tasks.t6_stats_ms", Unit: "ms", Better: "lower"},
	{Name: "tasks.t7_kmeans_ms", Unit: "ms", Better: "lower"},
	{Name: "tasks.t8_linreg_ms", Unit: "ms", Better: "lower"},

	{Name: "scanspec.eval_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "scanspec.merge_us", Unit: "us", Better: "lower"},

	{Name: "core.explore_ms", Unit: "ms", Better: "lower"},
	{Name: "core.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "core.result_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.leaves_scanned_per_op", Unit: "count", Better: "lower"},
	{Name: "core.chunks_scanned_per_op", Unit: "count", Better: "lower"},
	{Name: "core.chunks_pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.singleflight_shared", Unit: "count", Better: "higher"},
	{Name: "core.stages_unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "core.ingest_snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stream_append_ms", Unit: "ms", Better: "lower"},
	{Name: "core.seal_epoch_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stream_ttq_ms", Unit: "ms", Better: "lower"},
	{Name: "core.explore_decayed_ms", Unit: "ms", Better: "lower"},

	{Name: "index.find_covering_us", Unit: "us", Better: "lower"},
	{Name: "highlights.merge_us", Unit: "us", Better: "lower"},
	{Name: "highlights.decode_us", Unit: "us", Better: "lower"},

	{Name: "segment.chunk_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "segment.open_us", Unit: "us", Better: "lower"},
	{Name: "segment.column_decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "segment.fullrow_decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "segment.inflated_kb_per_op", Unit: "KB", Better: "lower"},

	{Name: "compress.inflate_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "compress.deflate_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "compress.ratio", Unit: "ratio", Better: "higher"},

	{Name: "dfs.range_read_us", Unit: "us", Better: "lower"},
	{Name: "dfs.reads_per_op", Unit: "count", Better: "lower"},
	{Name: "dfs.kb_read_per_op", Unit: "KB", Better: "lower"},

	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.commit_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsyncs_per_kbatch", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_row", Unit: "B", Better: "lower"},

	{Name: "memtable.insert_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "memtable.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "memtable.rows_peak", Unit: "count", Better: "lower"},

	{Name: "cluster.coord_explore_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.shard_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.shard_max_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.rpc_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.fanout_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.retries", Unit: "count", Better: "lower"},
	{Name: "cluster.hedge_wins", Unit: "count", Better: "lower"},

	{Name: "lifecycle.compact_s", Unit: "s", Better: "lower"},
	{Name: "lifecycle.scrub_s", Unit: "s", Better: "lower"},
	{Name: "decay.run_ms", Unit: "ms", Better: "lower"},
	{Name: "decay.bytes_freed_ratio", Unit: "ratio", Better: "higher"},

	{Name: "raw.explore_ratio", Unit: "ratio", Better: "lower"},
	{Name: "raw.t1_ratio", Unit: "ratio", Better: "lower"},
	{Name: "raw.t2_ratio", Unit: "ratio", Better: "lower"},
	{Name: "raw.t3_ratio", Unit: "ratio", Better: "lower"},
	{Name: "raw.t4_ratio", Unit: "ratio", Better: "lower"},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.alloc_kb_per_op", Unit: "KB", Better: "lower"},
}
