package main

// declaredMetric is a metric BENCHMARK.json declares, with its unit.
type declaredMetric struct{ name, unit string }

// endToEnd are the metrics an untraced run prints, on every workload:
// each is defined for all of them (README.md says how), so the result
// line always holds the whole set.
var endToEnd = []declaredMetric{
	{"setup_s", "s"},
	{"ok_share", "ratio"},
	{"peak_rss_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
}

// perLayer are the metrics a traced run prints. A workload that leaves
// a layer idle reports that layer's metrics as 0.
var perLayer = []declaredMetric{
	{"client.hit_p99_ms", "ms"},
	{"service.handler_hit_us_p50", "us"},
	{"service.handler_hit_us_p99", "us"},
	{"service.transport_hit_us_p50", "us"},
	{"service.direct_hit_us_p50", "us"},
	{"service.cache_hits", "count"},
	{"service.cache_misses", "count"},
	{"service.deduped", "count"},
	{"service.solves_started", "count"},
	{"service.suspended", "count"},
	{"service.resumed_drains", "count"},
	{"service.checkpoints_journaled", "count"},
	{"service.rejected", "count"},
	{"service.shed", "count"},
	{"service.solve_ms_p50", "ms"},
	{"service.solve_ms_p90", "ms"},
	{"service.store_records", "count"},
	{"service.store_mb", "MB"},
	{"journal.writes", "count"},
	{"journal.write_mb", "MB"},
	{"journal.write_ms", "ms"},
	{"journal.fsyncs", "count"},
	{"journal.fsync_ms", "ms"},
	{"journal.renames", "count"},
	{"feasibility.legs", "count"},
	{"feasibility.solver_s", "s"},
	{"feasibility.units", "count"},
	{"feasibility.tables", "count"},
	{"feasibility.munits_per_solver_s", "Munits/s"},
	{"feasibility.states_reexpanded", "count"},
	{"feasibility.branches_reused", "count"},
	{"feasibility.branches_dominated", "count"},
	{"feasibility.tables_memo_hit", "count"},
	{"checkpoint.count", "count"},
	{"checkpoint.encode_ms", "ms"},
	{"checkpoint.decode_ms", "ms"},
	{"checkpoint.total_mb", "MB"},
	{"checkpoint.max_kb", "KB"},
	{"checkpoint.frontier_max", "count"},
	{"journal.append_ms", "ms"},
	{"journal.compact_ms", "ms"},
	{"drainpool.generations", "count"},
	{"drainpool.launches", "count"},
	{"drainpool.straggler_s", "s"},
	{"drainpool.gen_gap_s", "s"},
	{"drainpool.coord_cpu_s", "s"},
	{"drainpool.worker_cpu_s", "s"},
	{"drainpool.worker_peak_rss_mb", "MB"},
	{"drainpool.units", "count"},
	{"drainpool.tables", "count"},
	{"calib.sha256_ms", "ms"},
	{"trace.overhead_pct", "%"},
}
