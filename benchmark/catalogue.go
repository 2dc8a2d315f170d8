package main

import "strings"

// metricDef names one metric of the benchmark. The catalogue below is the
// single list both BENCHMARK.json and the README are checked against
// (TestCatalogueMatchesBenchmarkJSON), so a later issue can cite
// "<metric> on <workload>" and mean one number.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; 0 for layer metrics (they explain, never gate).
	Bound float64
	// Exact marks counts that must repeat run to run on the same inputs:
	// a later diff in one is a behaviour change even when every tolerance
	// check passes.
	Exact bool
	// Moves says which end-to-end metric on which workload this layer
	// metric is expected to move (README interaction table).
	Moves string
}

// endToEnd are the metrics every workload reports with tracing off. Each
// must exist, be non-zero and hold its bound on all seven workloads,
// because the driver compares every one of them on every workload; the
// user-visible numbers that cannot meet that (see demoted) are printed by
// the suite and carried in the traced run's layer table instead.
//
// Bounds are set from A/A runs on the 2-core reference box (README, "How
// steady the numbers are"): the allocation and heap metrics repeat within
// 2% and keep tight bounds; ops_per_s is a rate on a shared virtual machine
// whose speed drifts by 10–25% for minutes at a time, so it is scaled by a
// calibration spin (result.endToEndValues) and still keeps the widest
// bound the contract allows; a claim on it needs paired runs.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "mallocs/op", Better: "lower", Bound: 0.03},
	{Name: "alloc_bytes_per_op", Unit: "B/op", Better: "lower", Bound: 0.05},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
}

// demoted are end-to-end in meaning but live in the layer table. The rule:
// a number that cannot be held at its bound on every workload is demoted,
// not given a looser bound. op_p50_ms repeats within 5% on warm_serve but
// moves ±20% from run to run of the same seed on serve_mixed and
// cluster_serve (at 300 req/s the processors idle between requests, and
// what is timed is a virtual CPU waking up); op_p99_ms needs a sample
// count only the request workloads have; fail_ratio is zero by design;
// slo_rate_rps exists on one workload and is quantised to a rung;
// ops_per_wall_s and setup_wall_s are ops_per_s and setup_s without the
// calibration scaling, which one slow phase of the shared box moved by 21%
// on identical inputs.
var demoted = []metricDef{
	{Name: "loadgen.ops_per_wall_s", Unit: "ops/s", Better: "higher", Moves: "ops_per_s before scaling by the calibration spin"},
	{Name: "loadgen.setup_wall_s", Unit: "s", Better: "lower", Moves: "setup_s before scaling by the calibration spin"},
	{Name: "loadgen.op_p50_ms", Unit: "ms", Better: "lower", Moves: "median latency of one call: an HTTP request, or a whole Evaluate / search.Run / simulation leg"},
	{Name: "loadgen.op_p99_ms", Unit: "ms", Better: "lower", Moves: "user-visible tail on warm_serve, serve_mixed, cluster_serve"},
	{Name: "loadgen.fail_ratio", Unit: "ratio", Better: "lower", Moves: "failed-or-refused / attempted; also the result line's failed/attempted"},
	{Name: "loadgen.slo_rate_rps", Unit: "req/s", Better: "higher", Moves: "highest serve_mixed rung inside the latency limit"},
}

// shortName is a demoted metric's end-to-end name: without the module.
func shortName(m metricDef) string { return strings.TrimPrefix(m.Name, "loadgen.") }

// perLayer is the traced run's table, named <module>.<metric>.
var perLayer = append(append([]metricDef{}, demoted...), []metricDef{
	{Name: "loadgen.op_p99_samples_beyond", Unit: "count", Better: "higher", Moves: "sample count behind op_p99_ms"},
	{Name: "topology.build_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s on cold_query (<1% share), search_batch (parameter moves rebuild)"},
	{Name: "topology.builds", Unit: "count", Better: "lower", Exact: true},
	{Name: "tm.build_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s on cold_query (<2% share)"},
	{Name: "tm.commodities", Unit: "count", Better: "lower", Exact: true},
	{Name: "graph.freeze_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s on cold_query (<1% share)"},
	{Name: "graph.overlay_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s on whatif_sweep"},

	{Name: "fluid.gk_solve_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s, op_p50_ms on cold_query; ops_per_s on whatif_sweep, search_batch; nothing on netsim_run, warm_serve"},
	{Name: "fluid.gk_solves", Unit: "count", Better: "lower", Exact: true},
	{Name: "fluid.gk_phases", Unit: "count", Better: "lower", Exact: true},
	{Name: "fluid.gk_iterations", Unit: "count", Better: "lower", Exact: true},
	{Name: "fluid.gk_us_per_iteration", Unit: "us", Better: "lower", Moves: "ops_per_s on cold_query, whatif_sweep, search_batch"},
	{Name: "fluid.gk_max_gap", Unit: "ratio", Better: "lower", Moves: "none: (dual-primal)/dual, must stay <= epsilon"},
	{Name: "fluid.gk_warm_iteration_ratio", Unit: "ratio", Better: "lower", Moves: "ops_per_s on whatif_sweep"},

	{Name: "whatif.scenarios", Unit: "count", Better: "higher", Exact: true},
	{Name: "whatif.promoted", Unit: "count", Better: "lower", Exact: true},
	{Name: "whatif.warm_hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "whatif.coarse_ms_mean", Unit: "ms", Better: "lower", Moves: "ops_per_s on whatif_sweep"},
	{Name: "whatif.fine_ms_mean", Unit: "ms", Better: "lower", Moves: "ops_per_s on whatif_sweep"},
	{Name: "whatif.base_solve_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s on whatif_sweep"},

	{Name: "search.coarse_evals", Unit: "count", Better: "lower", Exact: true},
	{Name: "search.fine_solves", Unit: "count", Better: "lower", Exact: true},
	{Name: "search.steps", Unit: "count", Better: "lower", Exact: true},
	{Name: "search.cache_hits", Unit: "count", Better: "higher"},
	{Name: "search.proxy_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s on search_batch"},
	{Name: "search.move_us", Unit: "us", Better: "lower", Moves: "ops_per_s on search_batch"},

	{Name: "harness.l2_put_us", Unit: "us", Better: "lower", Moves: "op_p50_ms on cold_query (<=0.1%), ops_per_s on search_batch"},
	{Name: "harness.l2_get_us", Unit: "us", Better: "lower", Moves: "op_p99_ms on serve_mixed (L2 tail)"},
	{Name: "harness.l2_entries", Unit: "count", Better: "lower"},
	{Name: "harness.l2_bytes", Unit: "B", Better: "lower"},
	{Name: "harness.lru_get_ns", Unit: "ns", Better: "lower", Moves: "op_p50_ms on warm_serve"},
	{Name: "harness.lru_put_ns", Unit: "ns", Better: "lower", Moves: "op_p50_ms on serve_mixed"},

	{Name: "serve.requests", Unit: "count", Better: "higher"},
	{Name: "serve.l1_hits", Unit: "count", Better: "higher"},
	{Name: "serve.l2_hits", Unit: "count", Better: "higher"},
	{Name: "serve.computed", Unit: "count", Better: "lower"},
	{Name: "serve.coalesced", Unit: "count", Better: "higher"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.errors", Unit: "count", Better: "lower"},
	{Name: "serve.l1_hit_ratio", Unit: "ratio", Better: "higher", Moves: "op_p50_ms on serve_mixed"},
	{Name: "serve.l1_evictions", Unit: "count", Better: "lower"},
	{Name: "serve.handler_us_p50", Unit: "us", Better: "lower", Moves: "ops_per_s, op_p50_ms on warm_serve"},
	{Name: "serve.engine_do_us_p50", Unit: "us", Better: "lower", Moves: "op_p50_ms on warm_serve"},
	{Name: "serve.codec_us_p50", Unit: "us", Better: "lower", Moves: "op_p50_ms, allocs_per_op on warm_serve"},
	{Name: "serve.allocs_per_hit", Unit: "mallocs/op", Better: "lower", Moves: "allocs_per_op on warm_serve"},
	{Name: "serve.server_ms_p50", Unit: "ms", Better: "lower", Moves: "op_p50_ms on every serve workload"},
	{Name: "serve.transport_queue_ms_p50", Unit: "ms", Better: "lower", Moves: "op_p50_ms on warm_serve (net/http share)"},
	{Name: "serve.latency_ms_p50_l1", Unit: "ms", Better: "lower", Moves: "op_p50_ms on warm_serve, serve_mixed"},
	{Name: "serve.latency_ms_p50_l2", Unit: "ms", Better: "lower", Moves: "op_p99_ms on serve_mixed"},
	{Name: "serve.latency_ms_p50_computed", Unit: "ms", Better: "lower", Moves: "op_p50_ms on cold_query; slo_rate_rps on serve_mixed"},

	{Name: "cluster.forwards", Unit: "count", Better: "lower"},
	{Name: "cluster.peer_hits", Unit: "count", Better: "lower"},
	{Name: "cluster.peer_fills", Unit: "count", Better: "lower"},
	{Name: "cluster.replica_pushes", Unit: "count", Better: "lower"},
	{Name: "cluster.replica_push_errors", Unit: "count", Better: "lower"},
	{Name: "cluster.replica_drops", Unit: "count", Better: "lower"},
	{Name: "cluster.replica_probes", Unit: "count", Better: "lower"},
	{Name: "cluster.hedges", Unit: "count", Better: "lower"},
	{Name: "cluster.retries", Unit: "count", Better: "lower"},
	{Name: "cluster.fallbacks", Unit: "count", Better: "lower"},
	{Name: "cluster.gossips", Unit: "count", Better: "lower"},
	{Name: "cluster.fleet_computed", Unit: "count", Better: "lower", Exact: true},
	{Name: "cluster.peer_hop_ms_p50", Unit: "ms", Better: "lower", Moves: "op_p50_ms, op_p99_ms on cluster_serve"},
	{Name: "cluster.l1_ms_p50", Unit: "ms", Better: "lower", Moves: "op_p50_ms on cluster_serve"},

	{Name: "netsim.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.ecmp_events_per_s", Unit: "1/s", Better: "higher", Moves: "ops_per_s on netsim_run"},
	{Name: "netsim.hyb_events_per_s", Unit: "1/s", Better: "higher", Moves: "ops_per_s on netsim_run"},
	{Name: "netsim.ns_per_event", Unit: "ns", Better: "lower", Moves: "ops_per_s on netsim_run"},
	{Name: "netsim.flows_completed", Unit: "count", Better: "higher", Exact: true},
	{Name: "netsim.allocs_per_flow", Unit: "mallocs/op", Better: "lower", Moves: "allocs_per_op on netsim_run"},
	{Name: "netsim.slab_high_water", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.drops", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s on netsim_run"},
	{Name: "netsim.fct_mean_ms", Unit: "ms", Better: "lower", Moves: "none: simulated, identical run to run"},
	{Name: "netsim.fct_p99_short_ms", Unit: "ms", Better: "lower", Moves: "none: simulated, identical run to run"},
	{Name: "sim.heap_high_water", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.engine_ns_per_event", Unit: "ns", Better: "lower", Moves: "ops_per_s on netsim_run"},
	{Name: "workload.inject_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s on netsim_run"},
	{Name: "workload.flows_injected", Unit: "count", Better: "higher", Exact: true},

	{Name: "obs.bench_trace_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "none: its own budget"},
	{Name: "obs.serve_trace_overhead_us", Unit: "us", Better: "lower", Moves: "none: its own budget"},
	{Name: "obs.layer_coverage_ratio", Unit: "ratio", Better: "higher", Moves: "none: layer busy time / wall time of the traced section"},
	{Name: "loadgen.sched_lag_ms_p99", Unit: "ms", Better: "lower", Moves: "explains op_p99_ms on serve_mixed"},
	{Name: "loadgen.client_us_per_req", Unit: "us", Better: "lower", Moves: "explains op_p50_ms on warm_serve"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "explains allocs_per_op"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower", Moves: "explains op_p99_ms"},
	{Name: "env.calib_ms_start", Unit: "ms", Better: "lower", Moves: "none: noisy-neighbour detector"},
	{Name: "env.calib_ms_end", Unit: "ms", Better: "lower", Moves: "none: noisy-neighbour detector"},
}...)

// workloadDef is one named workload of the suite.
type workloadDef struct {
	Name string
	Loop string // closed | open | batch
	Why  string
	run  func(*runEnv) *result
}

// workloads is filled in workloads.go's init so the catalogue file stays
// declarative.
var workloads []workloadDef
