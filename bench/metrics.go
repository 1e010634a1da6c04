package main

// metricDef names one metric of the benchmark. BENCHMARK.json repeats
// these tables; TestBenchmarkJSONMatchesBinary keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics defined, and never zero, on every workload: the
// ones the driver bounds. All are host-side quantities.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"alloc_mb_per_op", "MB", "lower", 0.10},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced-run metrics. The first block is the issue's
// workload-specific end-to-end set (rates and simulated results); they
// are listed here because a metric the driver bounds has to exist on every
// workload, and these are zero wherever the workload has no guest code, no
// fleet or no images. The rest is one block per layer.
var perLayer = []metricDef{
	{Name: "sim_mips", Unit: "MIPS", Better: "higher"},
	{Name: "simsec_per_s", Unit: "s/s", Better: "higher"},
	{Name: "seq_quanta_per_s", Unit: "1/s", Better: "higher"},
	{Name: "par_quanta_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim_makespan_s", Unit: "s", Better: "lower"},
	{Name: "sim_xform_us", Unit: "us", Better: "lower"},
	{Name: "sim_p50_sojourn_s", Unit: "s", Better: "lower"},
	{Name: "sim_energy_j", Unit: "J", Better: "lower"},
	{Name: "image_kb", Unit: "KiB", Better: "lower"},
	{Name: "heap_growth_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower"},

	{Name: "minic.ir_s", Unit: "s", Better: "lower"},
	{Name: "minic.src_kb", Unit: "KiB", Better: "lower"},
	{Name: "minic.ir_instrs", Unit: "count", Better: "lower"},
	{Name: "compiler.compile_s", Unit: "s", Better: "lower"},
	{Name: "compiler.x86_instrs", Unit: "count", Better: "lower"},
	{Name: "compiler.arm_instrs", Unit: "count", Better: "lower"},
	{Name: "compiler.callsites", Unit: "count", Better: "lower"},
	{Name: "link.link_s", Unit: "s", Better: "lower"},
	{Name: "link.image_kb", Unit: "KiB", Better: "lower"},

	{Name: "machine.x86_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "machine.arm_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "machine.instrs", Unit: "count", Better: "lower"},
	{Name: "cache.access_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "mem.rw_ns", Unit: "ns", Better: "lower"},

	{Name: "kernel.step_s", Unit: "s", Better: "lower"},
	{Name: "kernel.quanta", Unit: "count", Better: "lower"},
	{Name: "kernel.busy_quantum_ns", Unit: "ns", Better: "lower"},
	{Name: "kernel.idle_quantum_ns", Unit: "ns", Better: "lower"},
	{Name: "kernel.instrs_per_quantum", Unit: "count", Better: "higher"},
	{Name: "kernel.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "kernel.event_s", Unit: "s", Better: "lower"},
	{Name: "kernel.events", Unit: "count", Better: "lower"},

	{Name: "dsm.fault_ns", Unit: "ns", Better: "lower"},
	{Name: "dsm.page_in", Unit: "count", Better: "lower"},
	{Name: "dsm.invalidates", Unit: "count", Better: "lower"},
	{Name: "dsm.read_faults", Unit: "count", Better: "lower"},
	{Name: "dsm.write_faults", Unit: "count", Better: "lower"},

	{Name: "msg.send_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "msg.reliable_rtt_ns", Unit: "ns", Better: "lower"},
	{Name: "msg.messages", Unit: "count", Better: "lower"},
	{Name: "msg.bytes", Unit: "count", Better: "lower"},
	{Name: "msg.retries", Unit: "count", Better: "lower"},
	{Name: "msg.dropped", Unit: "count", Better: "lower"},

	{Name: "topo.transmit_ns", Unit: "ns", Better: "lower"},
	{Name: "topo.route_ns", Unit: "ns", Better: "lower"},
	{Name: "topo.uplink_util_max", Unit: "ratio", Better: "lower"},

	{Name: "xform.x86_to_arm_us", Unit: "us", Better: "lower"},
	{Name: "xform.arm_to_x86_us", Unit: "us", Better: "lower"},
	{Name: "xform.frames", Unit: "count", Better: "lower"},
	{Name: "xform.sim_p99_us", Unit: "us", Better: "lower"},

	{Name: "ckpt.encode_us", Unit: "us", Better: "lower"},
	{Name: "ckpt.decode_us", Unit: "us", Better: "lower"},
	{Name: "ckpt.restore_us", Unit: "us", Better: "lower"},
	{Name: "ckpt.image_kb", Unit: "KiB", Better: "lower"},
	{Name: "ckpt.pages", Unit: "count", Better: "lower"},
	{Name: "ckpt.images_written", Unit: "count", Better: "lower"},
	{Name: "ckpt.restores", Unit: "count", Better: "lower"},

	{Name: "member.round_us", Unit: "us", Better: "lower"},
	{Name: "member.msgs_per_node_round", Unit: "count", Better: "lower"},
	{Name: "member.probes", Unit: "count", Better: "lower"},
	{Name: "member.suspicions", Unit: "count", Better: "lower"},
	{Name: "member.deaths", Unit: "count", Better: "lower"},
	{Name: "member.false_suspicions", Unit: "count", Better: "lower"},
	{Name: "member.detect_ms", Unit: "ms", Better: "lower"},

	{Name: "sim.self_s", Unit: "s", Better: "lower"},
	{Name: "sim.self_frac", Unit: "ratio", Better: "lower"},
	{Name: "sim.groups_s", Unit: "s", Better: "lower"},
	{Name: "sim.groups_calls", Unit: "count", Better: "lower"},
	{Name: "sim.horizon_s", Unit: "s", Better: "lower"},
	{Name: "sim.horizon_calls", Unit: "count", Better: "lower"},
	{Name: "sim.scan_calls_per_quantum", Unit: "count", Better: "lower"},
	{Name: "sim.mean_groups", Unit: "count", Better: "higher"},
	{Name: "sim.fanout_frac", Unit: "ratio", Better: "higher"},
	{Name: "sim.stub_seq_ns_per_quantum", Unit: "ns", Better: "lower"},
	{Name: "sim.stub_par_ns_per_quantum", Unit: "ns", Better: "lower"},

	{Name: "sched.offered", Unit: "count", Better: "higher"},
	{Name: "sched.completed", Unit: "count", Better: "higher"},
	{Name: "sched.shed", Unit: "count", Better: "lower"},
	{Name: "sched.lost", Unit: "count", Better: "lower"},
	{Name: "sched.migrations", Unit: "count", Better: "lower"},
	{Name: "sched.evac_requests", Unit: "count", Better: "lower"},

	{Name: "traffic.next_ns", Unit: "ns", Better: "lower"},
	{Name: "traffic.quantile_ns", Unit: "ns", Better: "lower"},

	{Name: "fault.storm_gen_us", Unit: "us", Better: "lower"},
	{Name: "fault.crash_events", Unit: "count", Better: "lower"},
	{Name: "fault.partitions", Unit: "count", Better: "lower"},
	{Name: "fault.gray_windows", Unit: "count", Better: "lower"},
}
