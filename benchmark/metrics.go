package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names, units and directions (the tests compare them); all
// later performance claims name metrics exactly as they appear here.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the parent's median the metric may worsen by
}

// endToEnd are the metrics a user of the simulator waits for or pays, per
// workload, all in host time or host memory. Failed points are not a
// metric here (a metric may never read 0): every run reports them as
// failed out of attempted, and any failure makes the run incorrect.
//
// Every time here is in calibrated seconds: wall seconds scaled by how
// fast the reference program ran in the slices next to the timed work
// (calibrate.go says how, and why nothing less holds a bound on this
// host). The three pass metrics rest on the median pass of a run; the
// report prints the whole distribution, and the wall seconds, beside it.
//
// The time bounds are the widest the contract allows. Calibrated, the
// ten-run spreads are a few percent even while the host is disturbed, but
// calibration is a correction, and what it leaves in the worst stretches
// is not known to stay under a tighter bound. Smaller differences are for
// paired runs to resolve (README.md, "Comparing two commits").
var endToEnd = []metricDef{
	// Seconds until the benchmark could start measuring: the
	// expected-results table, the cache set generated from the seed, and
	// that set simulated cold into a fresh cache directory. Median of
	// setupReps set-ups, each calibrated.
	{"setup_s", "s", "lower", 0.25},
	// Calibrated seconds of one pass over the workload's points: the
	// median over the run's passes.
	{"pass_s", "s", "lower", 0.25},
	// Millions of simulated references (cpu.loads + cpu.stores of the
	// results a pass delivers, exact) per second of pass_s.
	{"sim_mrefs_per_s", "Mrefs/s", "higher", 0.25},
	// Sweep points a pass completes per second of pass_s.
	{"points_per_s", "1/s", "higher", 0.25},
	// Median Go heap megabytes (1e6 bytes) allocated during one pass.
	{"alloc_mb_per_pass", "MB", "lower", 0.02},
}

// perLayer are the traced run's metrics. Counts are exact sums over the
// traced pass; *_ns, *_us and *_ms are unit costs from the microprobes
// (probes.go), measured by calling the layer's public API from outside;
// *_s are span self times of the traced pass. None has a bound.
var perLayer = []metricDef{
	{"sim.event_ns", "ns", "lower", 0},
	{"sim.ctx_switch_ns", "ns", "lower", 0},
	{"sim.stepper_step_ns", "ns", "lower", 0},
	{"sim.barrier_round_ns", "ns", "lower", 0},
	{"sim.window_round_ns", "ns", "lower", 0},
	{"sim.window_grants", "count", "lower", 0},
	{"sim.window_mean_width", "cycles", "higher", 0},
	{"sim.shards2_ratio", "ratio", "lower", 0},
	{"sim.gomaxprocs1_ratio", "ratio", "higher", 0},
	{"sim.inline_steps", "count", "higher", 0},
	{"sim.goroutine_switches", "count", "lower", 0},
	{"network.send_deliver_ns", "ns", "lower", 0},
	{"network.send_deliver_contended_ns", "ns", "lower", 0},
	{"network.packets", "count", "lower", 0},
	{"network.payload_bytes", "bytes", "lower", 0},
	{"network.queueing_cycles", "cycles", "lower", 0},
	{"agent.dispatch_ns", "ns", "lower", 0},
	{"agent.dispatch_occupied_ns", "ns", "lower", 0},
	{"agent.dispatches", "count", "lower", 0},
	{"agent.occ_wait_cycles", "cycles", "lower", 0},
	{"machine.hit_ref_ns", "ns", "lower", 0},
	{"machine.local_miss_ref_ns", "ns", "lower", 0},
	{"machine.refs", "count", "higher", 0},
	{"machine.cache_misses", "count", "lower", 0},
	{"machine.build_us", "us", "lower", 0},
	{"machine.build_s", "s", "lower", 0},
	{"machine.run_s", "s", "lower", 0},
	{"stache.read_miss_ns", "ns", "lower", 0},
	{"stache.write_upgrade_ns", "ns", "lower", 0},
	{"stache.read_miss_cycles", "cycles", "lower", 0},
	{"stache.remote_faults", "count", "lower", 0},
	{"stache.invals_sent", "count", "lower", 0},
	{"dirnnb.read_miss_ns", "ns", "lower", 0},
	{"dirnnb.read_miss_cycles", "cycles", "lower", 0},
	{"dirnnb.remote_misses", "count", "lower", 0},
	{"blizzard.read_miss_ns", "ns", "lower", 0},
	{"blizzard.read_miss_cycles", "cycles", "lower", 0},
	{"typhoon.np_dispatches", "count", "lower", 0},
	{"apps.setup_s", "s", "lower", 0},
	{"apps.verify_s", "s", "lower", 0},
	{"harness.point_key_us", "us", "lower", 0},
	{"harness.point_key_s", "s", "lower", 0},
	{"harness.point_encode_us", "us", "lower", 0},
	{"harness.point_decode_us", "us", "lower", 0},
	{"harness.render_us", "us", "lower", 0},
	{"harness.render_s", "s", "lower", 0},
	{"harness.jN_speedup", "ratio", "higher", 0},
	{"resultcache.get_disk_us", "us", "lower", 0},
	{"resultcache.get_disk_p90_us", "us", "lower", 0},
	{"resultcache.get_mem_us", "us", "lower", 0},
	{"resultcache.put_us", "us", "lower", 0},
	{"resultcache.entry_bytes", "bytes", "lower", 0},
	{"resultcache.code_digest_ms", "ms", "lower", 0},
	{"resultcache.get_s", "s", "lower", 0},
	{"resultcache.hits", "count", "higher", 0},
	{"resultcache.misses", "count", "lower", 0},
	{"resultcache.corrupt", "count", "lower", 0},
	{"fleet.lease_rtt_us", "us", "lower", 0},
	{"fleet.lease_rtt_p90_us", "us", "lower", 0},
	{"fleet.lease_rtt_s", "s", "lower", 0},
	{"fleet.leases", "count", "lower", 0},
	{"fleet.reassigned", "count", "lower", 0},
	{"fleet.rejected", "count", "lower", 0},
	{"fleet.duplicates", "count", "lower", 0},
	{"runtime.peak_rss_mb", "MB", "lower", 0},
	{"runtime.gc_cycles_per_pass", "count", "lower", 0},
	{"runtime.gc_pause_ms_per_pass", "ms", "lower", 0},
	{"est_share.sim", "ratio", "lower", 0},
	{"est_share.network", "ratio", "lower", 0},
	{"est_share.agent", "ratio", "lower", 0},
	{"est_share.machine", "ratio", "lower", 0},
	{"est_share.protocol", "ratio", "lower", 0},
	{"est_share.unattributed", "ratio", "lower", 0},
	{"model.typhoon_over_dirnnb_geomean", "ratio", "lower", 0},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
	{"bench.point_self_frac", "ratio", "lower", 0},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// valuesFor pairs each definition with its measured value; a definition
// without one is a bug in the caller, reported by the second result.
func valuesFor(defs []metricDef, vals map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, missing
}
