package main

// metricDef names one reported number. The lists below are the same
// lists BENCHMARK.json carries (smoke_test.go holds them equal): every
// untraced run reports every end-to-end metric and every traced run
// every per-layer metric, whatever the workload, because the benchmark
// contract compares runs name by name.
//
// The end-to-end names are therefore generic and each workload gives
// them its own meaning (README.md, "End-to-end metrics"). A per-layer
// metric of a layer the workload never enters reads 0: that is the
// "this workload bypasses the layer" prediction made visible.
type metricDef struct {
	Name string
	Unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_us", "us"},
	{"allocs_per_op", "count"},
}

var perLayer = []metricDef{
	// sim: the event engine under the figures.
	{"sim.events_fired", "count"},
	{"sim.events_canceled", "count"},
	{"sim.run_ns_per_event", "ns"},
	{"sim.bare_ns_per_event", "ns"},
	// kernel: exact virtual-time counts; any simulator speed-up must
	// leave them identical.
	{"kernel.context_switches", "count"},
	{"kernel.dispatches", "count"},
	{"kernel.preemptions_in_crit", "count"},
	{"kernel.spin_virtual_s", "s"},
	{"kernel.spawn_us", "us"},
	// machine: model fidelity guards.
	{"machine.reload_virtual_s", "s"},
	{"machine.cache_miss_ratio", "ratio"},
	{"threads.launch_ms", "ms"},
	{"threads.tasks_run", "count"},
	{"threads.suspensions", "count"},
	{"apps.build_ms", "ms"},
	{"ctrl.scans", "count"},
	{"ctrl.polls", "count"},
	{"experiments.newsim_us", "us"},
	{"experiments.point_ms_p50", "ms"},
	{"experiments.parallel_eff", "ratio"},
	{"experiments.fig4_ctl_gain", "ratio"},
	// coordinator, wire and server side of a poll.
	{"coordinator.req_encode_ns", "ns"},
	{"coordinator.req_decode_ns", "ns"},
	{"coordinator.resp_encode_ns", "ns"},
	{"coordinator.resp_decode_ns", "ns"},
	{"coordinator.notepoll_ack_ns", "ns"},
	{"coordinator.register_us_p50", "us"},
	{"coordinator.unregister_us_p50", "us"},
	{"coordinator.status_ms", "ms"},
	{"coordinator.poll_rtt_p50_us", "us"},
	{"coordinator.poll_rtt_p99_us", "us"},
	{"coordinator.poll_rtt_p999_us", "us"},
	{"coordinator.paced_rtt_p50_us", "us"},
	{"coordinator.paced_rtt_p99_us", "us"},
	// coordinator, decision side of a re-target.
	{"coordinator.rebalance_us_m200", "us"},
	{"coordinator.rebalance_us_m2000", "us"},
	{"coordinator.rebalance_us_m10000", "us"},
	{"coordinator.stage_snapshot_us_p50", "us"},
	{"coordinator.stage_recompute_us_p50", "us"},
	{"coordinator.stage_notify_us_p50", "us"},
	{"coordinator.batch_flushes", "count"},
	{"coordinator.batch_coalesced", "count"},
	{"coordinator.metrics_series", "count"},
	{"coordinator.settle_ms_p50", "ms"},
	{"coordinator.settle_ms_p90", "ms"},
	{"coordinator.decide_ms_p50", "ms"},
	{"coordinator.learn_ms_p50", "ms"},
	{"coordinator.ack_ms_p50", "ms"},
	{"core.allocate_us_m2000", "us"},
	{"core.allocate_us_m10000", "us"},
	// journal: fsync figures are reported, never gated (sandbox disk).
	{"journal.append_ns", "ns"},
	{"journal.sync_ms_p50", "ms"},
	{"journal.bytes_per_record", "B"},
	{"journal.records_per_cycle", "count"},
	{"journal.recover_s", "s"},
	{"journal.recover_ms_per_100k", "ms"},
	{"flight.append_ns", "ns"},
	{"metrics.observe_ns", "ns"},
	{"pool.submit_ns", "ns"},
	{"pool.dispatch_us_p50", "us"},
	{"pool.parks", "count"},
	{"pool.unparks", "count"},
	{"pool.spin_pct", "%"},
	{"pool.retarget_settle_us_p99", "us"},
	// harness: what the measuring itself costs, and how steady the host is.
	{"harness.unix_echo_rtt_us", "us"},
	{"harness.paced_lag_us_p99", "us"},
	{"harness.calib_ms", "ms"},
	{"harness.trace_overhead_pct", "%"},
}
