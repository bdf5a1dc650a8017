package main

// metric names one printed figure and its unit. The two tables below
// are the benchmark's whole output vocabulary: every untraced run
// prints exactly endToEnd, every traced run exactly perLayer, on every
// workload, and BENCHMARK.json names the same metrics (the self-tests
// hold the three in step). A per-layer metric a workload cannot observe
// from outside prints as 0 and is listed under "unobserved" in the
// run's provenance line.
type metric struct {
	name, unit string
}

// endToEnd are the figures a user of the trainer sees. A "slot" is one
// scenario evaluation of one protocol over one draw; a scenario op
// delivers one slot per matrix row, a training op one per (tree x
// replica) evaluation the search requests, cache hits included.
var endToEnd = []metric{
	{"setup_s", "s"},       // median of three cold set-ups, each from its process start
	{"op_ms_p50", "ms"},    // median op wall time
	{"op_ms_p90", "ms"},    // nearest-rank p90 (the slowest op when a run holds fewer than ten)
	{"sim_s_per_s", "s/s"}, // simulated seconds delivered per host second, median over ops
	{"slots_per_s", "1/s"}, // slots delivered per host second, median over ops
	{"max_rss_mb", "MB"},   // peak resident set of the process
}

// perLayer are the traced run's figures, one group per module. Counts
// are per op and repeat exactly between traced runs of one seed; the
// runtime group and the timings are measured, not counted.
var perLayer = []metric{
	{"sim.events_per_op", "count"},
	{"sim.events_per_sim_s", "1/s"},
	{"sim.ns_per_event", "ns"},
	{"sim.heap_depth_mean", "count"},
	{"netsim.packets_per_op", "count"},
	{"netsim.retransmits_per_op", "count"},
	{"netsim.timeouts_per_op", "count"},
	{"netsim.events_per_packet", "events/packet"},
	{"queue.drops_per_op", "count"},
	{"queue.ce_marks_per_op", "count"},
	{"remycc.lookups_per_op", "count"},
	{"remycc.whiskers", "count"},
	{"scenario.build_us_p50", "us"},
	{"scenario.run_ms_p50", "ms"},
	{"remy.slots_per_op", "count"},
	{"remy.slots_simulated_per_op", "count"},
	{"remy.cache_hit_ratio", "hits/slots"},
	{"remy.us_per_simulated_slot", "us"},
	{"remy.gen_ms_p50", "ms"},
	{"shard.jobs_per_op", "count"},
	{"shard.job_ms_p50", "ms"},
	{"shard.job_ms_p90", "ms"},
	{"shard.retries_per_op", "count"},
	{"shard.wire_bytes_per_op", "B"},
	{"shardnet.eval_us_p50", "us"},
	{"shardnet.cache_hit_ratio", "hits/gets"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.gc_per_op", "count"},
	{"self_ms.bench_per_op", "ms"},
	{"self_ms.scenario_per_op", "ms"},
	{"self_ms.remy_per_op", "ms"},
	{"self_ms.shardnet_per_op", "ms"},
	{"bench.trace_overhead_ms_per_op", "ms"},
}
