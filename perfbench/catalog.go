package main

// metric is one named benchmark output: its unit and which direction is
// better. The catalog is the single list BENCHMARK.json must mirror; the
// self-test checks both against each other.
type metric struct {
	name   string
	unit   string
	better string // "higher" or "lower"
}

// workloads lists the benchmark's workloads in the order BENCHMARK.json
// names them.
var workloads = []string{"session", "bank108", "swarm"}

// endToEnd are the metrics an untraced run (--trace 0) prints. Every
// workload reports every one; README.md gives each metric's definition per
// workload.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"round_p50_ms", "ms", "lower"},
	{"round_p90_ms", "ms", "lower"},
	{"found_frac", "ratio", "higher"},
	{"cirs_per_s", "1/s", "higher"},
	{"delay_match_frac", "ratio", "higher"},
	{"shape_id_frac", "ratio", "higher"},
	{"spurious_frac", "ratio", "lower"},
	{"events_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run (--trace 1) prints.
var perLayer = []metric{
	{"host.calib_ms", "ms", "lower"},
	{"sim.round_p50_ms", "ms", "lower"},
	{"core.detect_p50_ms", "ms", "lower"},
	{"core.detect_p90_ms", "ms", "lower"},
	{"core.resolve_us", "us", "lower"},
	{"locate.solve_us", "us", "lower"},
	{"core.detect1_p50_ms", "ms", "lower"},
	{"core.batch_s", "s", "lower"},
	{"core.batch_parallel_eff", "ratio", "higher"},
	{"core.warm_loop_cirs_per_s", "1/s", "higher"},
	{"core.batch_speedup", "ratio", "higher"},
	{"detector.iterations", "count", "lower"},
	{"detector.template_evals", "count", "lower"},
	{"dsp.bank_transforms", "count", "lower"},
	{"dsp.bank_filters", "count", "lower"},
	{"dsp.upsample_execs", "count", "lower"},
	{"dsp.bank_shift_subtracts", "count", "lower"},
	{"core.useful_round_frac", "ratio", "higher"},
	{"dsp.fft_us", "us", "lower"},
	{"dsp.filter_peak_us", "us", "lower"},
	{"dsp.scan_best_us", "us", "lower"},
	{"pulse.bank_build_ms", "ms", "lower"},
	{"core.new_detector_ms", "ms", "lower"},
	{"sim.swarm_build_s", "s", "lower"},
	{"sim.parallel_eff", "ratio", "higher"},
	{"sim.barrier_stall_frac", "ratio", "lower"},
	{"sim.bus_drain_frac", "ratio", "lower"},
	{"sim.critical_shard_share", "ratio", "lower"},
	{"sim.windows", "count", "lower"},
	{"sim.bus_messages", "count", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.cross_shard_frac", "ratio", "lower"},
	{"sim.w1_run_s", "s", "lower"},
	{"sim.speedup", "ratio", "higher"},
	{"sim.track_pos_ns", "ns", "lower"},
	{"sim.engine_event_ns", "ns", "lower"},
	{"alloc_bytes_per_op", "B", "lower"},
	{"trace_overhead_frac", "ratio", "lower"},
}

// catalogFor returns the metrics a run in the given mode must print.
func catalogFor(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}
