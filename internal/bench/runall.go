package bench

import "fmt"

// Experiments maps experiment IDs (as used by cmd/fusebench -exp) to their
// drivers. Each driver prints one or more tables.
var Experiments = []struct {
	ID   string
	Desc string
	Run  func(o Options)
}{
	{"fig8cell", "Fig 8a/8b: Cell sum(X*Y*Z), dense + sparse", func(o Options) {
		Fig8Cell(o, false).Print(o.Out)
		Fig8Cell(o, true).Print(o.Out)
	}},
	{"fig8magg", "Fig 8c/8d: MAgg sum(X*Y), sum(X*Z), dense + sparse", func(o Options) {
		Fig8MAgg(o, false).Print(o.Out)
		Fig8MAgg(o, true).Print(o.Out)
	}},
	{"fig8row", "Fig 8e/8f: Row t(X)(Xv), dense + sparse", func(o Options) {
		Fig8Row(o, false).Print(o.Out)
		Fig8Row(o, true).Print(o.Out)
	}},
	{"fig8rowmm", "Fig 8g: Row t(X)(XV)", func(o Options) {
		Fig8RowMM(o).Print(o.Out)
	}},
	{"fig8outer", "Fig 8h: Outer sum(X*log(UV'+eps)) sparsity sweep", func(o Options) {
		Fig8Outer(o).Print(o.Out)
	}},
	{"fig9", "Fig 9: compressed operations sum(X^2)", func(o Options) {
		Fig9CLA(o).Print(o.Out)
	}},
	{"fig10", "Fig 10: instruction footprint", func(o Options) {
		Fig10Footprint(o, 31).Print(o.Out)
		Fig10Footprint(o, 0).Print(o.Out)
	}},
	{"table3", "Table 3: compilation overhead", func(o Options) {
		Table3Overhead(o).Print(o.Out)
	}},
	{"fig11", "Fig 11: compiler paths and plan cache", func(o Options) {
		Fig11Compile(o).Print(o.Out)
	}},
	{"fig12", "Fig 12: plan enumeration and pruning", func(o Options) {
		Fig12Enumeration(o).Print(o.Out)
	}},
	{"table4", "Table 4: data-intensive end-to-end", func(o Options) {
		Table4DataIntensive(o).Print(o.Out)
	}},
	{"fig13", "Fig 13: hybrid algorithms, growing intermediates", func(o Options) {
		for _, t := range Fig13Hybrid(o) {
			t.Print(o.Out)
		}
	}},
	{"table5", "Table 5: compute-intensive end-to-end", func(o Options) {
		Table5ComputeIntensive(o).Print(o.Out)
	}},
	{"table6", "Table 6: distributed algorithms", func(o Options) {
		Table6Distributed(o).Print(o.Out)
	}},
	{"phases", "Phase attribution: compile, compress, codegen vs kernel time per mode and per algorithm", func(o Options) {
		PhaseAttribution(o).Print(o.Out)
		PhaseAttributionAlgorithms(o).Print(o.Out)
	}},
	{"regret", "Plan regret: the batch_mix programs under five interleaved modes, t(Gen)/best and a class per regretted program", func(o Options) {
		Regret(o).Print(o.Out)
	}},
	{"ablation", "Ablations: linearization order, MAgg fusion, dominance pruning", func(o Options) {
		AblationOrder(o).Print(o.Out)
		AblationMAgg(o).Print(o.Out)
		AblationDominance(o).Print(o.Out)
	}},
	{"obsoverhead", "Observability overhead: instrumented vs stripped session (emits BENCH_obs_overhead.json)", func(o Options) {
		ObsOverhead(o).Print(o.Out)
	}},
	{"kernels", "Kernel overhaul gates: TSMM speedup, buffer-pool allocations, matmult regression (emits BENCH_kernels.json)", func(o Options) {
		Kernels(o).Print(o.Out)
	}},
	{"dist", "Distributed backend gates: broadcast cache, tree shuffle, zero-copy panels (emits BENCH_dist.json)", func(o Options) {
		Dist(o).Print(o.Out)
	}},
	{"fault", "Fault-tolerance gates: chaos correctness, scheduler overhead, kill recovery (emits BENCH_fault.json)", func(o Options) {
		Fault(o).Print(o.Out)
	}},
	{"serve", "Serving gates: multi-tenant p99, open-loop scaling, backpressure, micro-batching (emits BENCH_serve.json)", func(o Options) {
		Serve(o).Print(o.Out)
	}},
	{"serveobs", "Serving observability gates: flight-recorder p99 overhead, trace retention (emits BENCH_serveobs.json)", func(o Options) {
		ServeObs(o).Print(o.Out)
	}},
	{"hfuse", "Horizontal fusion gates: sibling merge speedup, merged operator vs ideal loop, equivalence, plan quality (emits BENCH_hfuse.json)", func(o Options) {
		HFuse(o).Print(o.Out)
	}},
	{"cla", "Compressed execution gates: fused-over-groups speedup, compressed wire bytes, equivalence, decline overhead (emits BENCH_cla.json)", func(o Options) {
		CLA(o).Print(o.Out)
	}},
	{"recost", "Feedback gates: calibration halves cost error, adversarial re-optimization, feedback overhead (emits BENCH_recost.json)", func(o Options) {
		Recost(o).Print(o.Out)
	}},
}

// RunAll executes every experiment.
func RunAll(o Options) {
	for _, e := range Experiments {
		fmt.Fprintf(o.Out, "\n### %s — %s\n", e.ID, e.Desc)
		e.Run(o)
	}
}

// Run executes one experiment by ID; false if unknown.
func Run(id string, o Options) bool {
	for _, e := range Experiments {
		if e.ID == id {
			e.Run(o)
			return true
		}
	}
	return false
}
