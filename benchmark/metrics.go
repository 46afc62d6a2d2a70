package main

import "slices"

// metricDef names one benchmark metric. This table is the single source
// of truth: BENCHMARK.json mirrors it (the self-test holds the two
// together) and -compare takes its bounds from here.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline's figure by which the metric may
	// worsen before -compare calls it a regression (end-to-end only).
	Bound float64
	// Slack is an absolute allowance added to Bound×figure, for metrics
	// that sit near zero.
	Slack float64
	// Exact metrics are deterministic for a fixed seed: they compare
	// bit-for-bit and any worsening is a regression.
	Exact bool
	// Median metrics report the median of their samples instead of the
	// best one (see best): set-up runs a handful of times, not dozens.
	Median bool
}

// endToEnd lists what a perfq user sees, on every workload.
//
// close_ms_p50 is result staleness. On the windowed workloads it runs
// from the source returning the first record past a window boundary
// (or EOF) to the emit callback receiving that window, each trial's p50
// over its windows. On the single-window workloads nothing is delivered
// before the end, so it is the batch job's time from opening the source
// to holding the tables (the trial's wall time).
//
// valid_key_frac is exact for a fixed seed; its bound in BENCHMARK.json
// only absorbs the seed-to-seed variation of the non-linear store.
var endToEnd = []metricDef{
	{Name: "pkts_per_s", Unit: "records/s", Better: "higher", Bound: 0.25},
	{Name: "close_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_b_per_pkt", Unit: "B/record", Better: "lower", Bound: 0.10, Slack: 0.5},
	{Name: "valid_key_frac", Unit: "fraction", Better: "higher", Bound: 0.02, Exact: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Median: true},
}

// failedFrac is recorded in result files and compared exactly. It is not
// in BENCHMARK.json's end_to_end list because its expected value is 0;
// the driver reads it from the attempted/failed counts instead.
var failedFrac = metricDef{Name: "failed_frac", Unit: "fraction", Better: "lower", Exact: true}

// resultMetrics lists the end-to-end metrics of a result file.
func resultMetrics() []metricDef { return append(slices.Clone(endToEnd), failedFrac) }

// perLayer lists the layer metrics of the traced run (layer = module
// name). A metric that does not apply to a workload reads 0 there.
// README.md says which end-to-end metric each should move, and where.
var perLayer = []metricDef{
	{Name: "compiler.compile_us", Unit: "us/compile", Better: "lower"},
	{Name: "trace.read_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "compiler.key_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "fold.update_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "fold.pred_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "kvstore.process_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "kvstore.hit_frac", Unit: "fraction", Better: "higher"},
	{Name: "kvstore.evict_frac", Unit: "fraction", Better: "lower"},
	{Name: "kvstore.flush_us_p50", Unit: "us/flush", Better: "lower"},
	{Name: "backing.merge_ns_per_evict", Unit: "ns/evict", Better: "lower"},
	{Name: "backing.keys", Unit: "count", Better: "lower"},
	{Name: "backing.valid_frac", Unit: "fraction", Better: "higher"},
	{Name: "switchsim.feed_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "switchsim.self_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "switchsim.close_us_p50", Unit: "us/window", Better: "lower"},
	{Name: "switchsim.collect_ms", Unit: "ms/trial", Better: "lower"},
	{Name: "shard.route_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "shard.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "shard.speedup", Unit: "x", Better: "higher"},
	{Name: "fabric.feed_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "fabric.collect_ms", Unit: "ms/trial", Better: "lower"},
	{Name: "fabric.switch_skew", Unit: "ratio", Better: "lower"},
	{Name: "fabric.unrouted_frac", Unit: "fraction", Better: "lower"},
	{Name: "exec.finish_ms", Unit: "ms/trial", Better: "lower"},
	{Name: "exec.truth_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "window.close_ms_p99", Unit: "ms/window", Better: "lower"},
	{Name: "window.close_share", Unit: "fraction", Better: "lower"},
	{Name: "window.windows", Unit: "count", Better: "lower"},
	{Name: "window.rows_per_window", Unit: "count", Better: "lower"},
	{Name: "netstore.offer_ns_per_evict", Unit: "ns/evict", Better: "lower"},
	{Name: "netstore.sync_ms_p50", Unit: "ms/sync", Better: "lower"},
	{Name: "netstore.evictions_per_s", Unit: "1/s", Better: "higher"},
	{Name: "netstore.applied_frac", Unit: "fraction", Better: "higher"},
	{Name: "netstore.queue_overflow", Unit: "count", Better: "lower"},
	{Name: "proc.cpu_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.procs", Unit: "count", Better: "higher"},
	{Name: "bench.residual_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "fraction", Better: "lower"},
}
