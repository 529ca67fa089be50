package main

// metricDef declares one metric of BENCHMARK.json. The table here and the
// JSON file must agree; main_test.go compares them.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists what a user of the system sees and the driver gates.
// Every workload reports every one of them from an untraced run under
// codegen.DefaultConfig(). The list is short on purpose: the reference host
// changes speed by a quarter and more within minutes (README.md, Noise), and
// every gated metric is one more chance for an unchanged program to be
// rejected, so only the widest aggregates are here; their finer slices (per
// tag, median latency, throughput) and the tail latency, which has no
// definition that is both steady on batch_mix and the same thing on
// serve_mix, are the ops.* per-layer metrics.
//
// An operation is one script run (batch_mix) or one HTTP request
// (serve_mix), from script text in to verified outputs out; a program is a
// named (script, input) pair; a pass runs every program once (serve_mix:
// one segment of the request schedule).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},        // input generation + construction + warm-up pass, median of the repeated set-ups
	{"run_s", "s", "lower"},          // a pass: batch_mix the sum of the programs' times, serve_mix the median segment wall time
	{"geomean_ms", "ms", "lower"},    // geomean over programs of the program's time (batch_mix: fastQuantile over the passes; serve_mix: median of hot, of cold)
	{"peak_heap_mb", "MiB", "lower"}, // runtime.MemStats.HeapSys at the end of the run
}

// perLayer lists the numbers of single layers (layer = module name before
// the first dot, except pool/alloc/gc which belong to matrix, and ops which
// slices the end-to-end numbers). They have no bound. Every
// workload reports every one of them from a traced run. "probe" metrics
// come from the workload-independent probe suite (probes.go), the others
// from the workload's own run; README.md says which end-to-end metric each
// should move.
var perLayer = []metricDef{
	// Slices of and companions to the end-to-end numbers, from the traced
	// run's passes: the geomean of the programs tagged dense, sparse and
	// compressed, the median operation latency, geomean_ms over medians, the
	// tail over repetitions, and the verified operations per second.
	{"ops.dense_ms", "ms", "lower"},
	{"ops.sparse_ms", "ms", "lower"},
	{"ops.compressed_ms", "ms", "lower"},
	{"ops.p50_ms", "ms", "lower"},
	{"ops.median_ms", "ms", "lower"}, // geomean_ms with every program at its median
	{"ops.tail_ms", "ms", "lower"},   // tail of all timed operations pooled: 99th percentile on serve_mix, 95th on batch_mix
	{"ops.per_s", "1/s", "higher"},

	{"dml.parse_s", "s", "lower"},
	{"dml.compile_s", "s", "lower"},
	{"dml.blocks_optimized", "count", "lower"},
	{"dml.blocks_reused", "count", "higher"},

	{"rewrite.apply_s", "s", "lower"},
	{"rewrite.hops_in", "count", "lower"},
	{"rewrite.hops_out", "count", "lower"},

	{"codegen.optimize_s", "s", "lower"},
	{"codegen.explore_s", "s", "lower"},
	{"codegen.enumerate_s", "s", "lower"},
	{"codegen.time_s", "s", "lower"},
	{"codegen.plans_evaluated", "count", "lower"},
	{"codegen.dags_optimized", "count", "lower"},
	{"codegen.cplans_constructed", "count", "lower"},
	{"codegen.operators_compiled", "count", "lower"},
	{"codegen.plancache_hits", "count", "higher"},
	{"codegen.plancache_misses", "count", "lower"},
	{"codegen.plancache_evictions", "count", "lower"},
	{"codegen.regret_max", "ratio", "lower"},
	{"codegen.regret_geomean", "ratio", "lower"},
	{"codegen.cost_relerr_p50", "ratio", "lower"},

	{"cplan.compile_s", "s", "lower"},
	{"cplan.operators_per_s", "1/s", "higher"},

	{"runtime.execute_s", "s", "lower"},
	{"runtime.cell_gbps", "GB/s", "higher"},
	{"runtime.sparse_cell_gbps", "GB/s", "higher"},
	{"runtime.magg_gbps", "GB/s", "higher"},
	{"runtime.row_gbps", "GB/s", "higher"},
	{"runtime.outer_gflops", "GFLOP/s", "higher"},
	{"runtime.roofline_frac", "ratio", "higher"},
	{"runtime.spoof_invocations", "count", "lower"},

	{"matrix.matmult_gflops", "GFLOP/s", "higher"},
	{"matrix.tsmm_gflops", "GFLOP/s", "higher"},
	{"matrix.mv_gbps", "GB/s", "higher"},
	{"pool.hitrate", "ratio", "higher"},
	{"pool.gets", "count", "lower"},
	{"pool.misses", "count", "lower"},
	{"pool.bytes_recycled", "B", "higher"},
	{"alloc.mb_per_pass", "MiB", "lower"},
	{"alloc.mallocs_per_pass", "count", "lower"},
	{"gc.cycles", "count", "lower"},
	{"gc.pause_ms", "ms", "lower"},

	{"vector.dot_gflops", "GFLOP/s", "higher"},
	{"vector.multadd_gflops", "GFLOP/s", "higher"},
	{"vector.dot_mem_gflops", "GFLOP/s", "higher"},
	{"vector.multadd_mem_gflops", "GFLOP/s", "higher"},

	{"par.dispatch_us", "us", "lower"},
	{"par.speedup", "ratio", "higher"},
	{"par.utilization", "ratio", "higher"},
	{"par.calls", "count", "lower"},
	{"par.sequential", "count", "lower"},

	{"compress.compress_s", "s", "lower"},
	{"compress.ratio", "ratio", "higher"},
	{"compress.exec_hit", "count", "higher"},
	{"compress.exec_fallback", "count", "lower"},
	{"compress.auto_declined", "count", "lower"},

	{"serve.hot_p50_ms", "ms", "lower"},
	{"serve.cold_p50_ms", "ms", "lower"},
	{"serve.queue_p50_ms", "ms", "lower"},
	{"serve.exec_p50_ms", "ms", "lower"},
	{"serve.overhead_p50_ms", "ms", "lower"},
	{"serve.batched", "count", "higher"},
	{"serve.shed", "count", "lower"},

	{"obs.trace_overhead_frac", "ratio", "lower"},

	{"machine.read_gbps", "GB/s", "higher"},
	{"machine.gflops", "GFLOP/s", "higher"},
	{"machine.nproc", "count", "higher"},
	{"machine.gomaxprocs", "count", "higher"},
}

// value is one measured metric: the number, its unit, and how many samples
// it was computed from (printed beside every timing).
type value struct {
	v    float64
	unit string
	n    int
}

// values maps metric name to its measurement.
type values map[string]value

func (vs values) set(name string, v float64, n int) {
	vs[name] = value{v: v, n: n}
}

// fill assigns declared units and reports the names that defs declares but
// vs lacks, and the names vs has that defs does not declare.
func (vs values) fill(defs []metricDef) (missing, extra []string) {
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.name] = true
		if v, ok := vs[d.name]; ok {
			v.unit = d.unit
			vs[d.name] = v
		} else {
			missing = append(missing, d.name)
		}
	}
	for name := range vs {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	return missing, extra
}
