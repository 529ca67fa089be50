package bench

import (
	"errors"
	"fmt"
)

// show is a driver that prints the tables of the given experiment functions.
func show(tables ...func(o Options) *Table) func(o Options) error {
	return func(o Options) error {
		for _, t := range tables {
			t(o).Print(o.Out)
		}
		return nil
	}
}

// Experiments maps experiment IDs (as used by cmd/fusebench -exp) to their
// drivers. Each driver prints one or more tables; "gates" runs every CI gate
// and fails when a check does. A single gate runs by its ID (Gates).
var Experiments = []struct {
	ID   string
	Desc string
	Run  func(o Options) error
}{
	{"fig8cell", "Fig 8a/8b: Cell sum(X*Y*Z), dense + sparse", show(
		func(o Options) *Table { return Fig8Cell(o, false) },
		func(o Options) *Table { return Fig8Cell(o, true) })},
	{"fig8magg", "Fig 8c/8d: MAgg sum(X*Y), sum(X*Z), dense + sparse", show(
		func(o Options) *Table { return Fig8MAgg(o, false) },
		func(o Options) *Table { return Fig8MAgg(o, true) })},
	{"fig8row", "Fig 8e/8f: Row t(X)(Xv), dense + sparse", show(
		func(o Options) *Table { return Fig8Row(o, false) },
		func(o Options) *Table { return Fig8Row(o, true) })},
	{"fig8rowmm", "Fig 8g: Row t(X)(XV)", show(Fig8RowMM)},
	{"fig8outer", "Fig 8h: Outer sum(X*log(UV'+eps)) sparsity sweep", show(Fig8Outer)},
	{"fig9", "Fig 9: compressed operations sum(X^2)", show(Fig9CLA)},
	{"fig10", "Fig 10: instruction footprint", show(
		func(o Options) *Table { return Fig10Footprint(o, 31) },
		func(o Options) *Table { return Fig10Footprint(o, 0) })},
	{"table3", "Table 3: compilation overhead", show(Table3Overhead)},
	{"fig11", "Fig 11: compiler paths and plan cache", show(Fig11Compile)},
	{"fig12", "Fig 12: plan enumeration and pruning", show(Fig12Enumeration)},
	{"table4", "Table 4: data-intensive end-to-end", show(Table4DataIntensive)},
	{"fig13", "Fig 13: hybrid algorithms, growing intermediates", func(o Options) error {
		for _, t := range Fig13Hybrid(o) {
			t.Print(o.Out)
		}
		return nil
	}},
	{"table5", "Table 5: compute-intensive end-to-end", show(Table5ComputeIntensive)},
	{"table6", "Table 6: distributed algorithms", show(Table6Distributed)},
	{"phases", "Phase attribution: compile, compress, codegen vs kernel time per mode and per algorithm",
		show(PhaseAttribution, PhaseAttributionAlgorithms)},
	{"regret", "Plan regret: the batch_mix programs under five interleaved modes, t(Gen)/best and a class per regretted program", show(Regret)},
	{"ablation", "Ablations: linearization order, MAgg fusion, dominance pruning",
		show(AblationOrder, AblationMAgg, AblationDominance)},
	{"gates", "Every CI gate in ci.sh's order: one table, one BENCH.json, failing when any check fails", func(o Options) error {
		return RunGates(o, Gates...)
	}},
}

// RunAll executes every experiment, every gate included, and returns the
// errors of those that failed.
func RunAll(o Options) error {
	var errs []error
	for _, e := range Experiments {
		fmt.Fprintf(o.Out, "\n### %s — %s\n", e.ID, e.Desc)
		errs = append(errs, e.Run(o))
	}
	return errors.Join(errs...)
}

// Run executes one experiment or one gate by ID.
func Run(id string, o Options) error {
	for _, e := range Experiments {
		if e.ID == id {
			return e.Run(o)
		}
	}
	for _, g := range Gates {
		if g.ID == id {
			return RunGates(o, g)
		}
	}
	return fmt.Errorf("unknown experiment %q; use -list", id)
}
