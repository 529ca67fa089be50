package bench

import (
	"fmt"
	"io"
	"time"

	"sysml/internal/algos"
	"sysml/internal/codegen"
	"sysml/internal/dml"
)

// algoSetup is one algorithm at harness scale.
type algoSetup struct {
	algo      algos.Algorithm
	rows      int
	cols      int
	overrides map[string]float64
}

func algoSetups(o Options) []algoSetup {
	return []algoSetup{
		{algos.L2SVM, o.rows(5000), 50, map[string]float64{"maxiter": 5}},
		{algos.MLogreg, o.rows(3000), 30, map[string]float64{"maxiter": 3, "inneriter": 5, "k": 3}},
		{algos.GLM, o.rows(3000), 30, map[string]float64{"maxiter": 3, "inneriter": 5}},
		{algos.KMeans, o.rows(5000), 20, map[string]float64{"maxiter": 5}},
		{algos.ALSCG, o.rows(800), 600, map[string]float64{"maxiter": 2, "rank": 10}},
		{algos.AutoEncoder, o.rows(2048), 50,
			map[string]float64{"epochs": 1, "batch": 64, "H1": 32, "H2": 2}},
	}
}

func runAlgo(s algoSetup, cfg codegen.Config) (*dml.Session, time.Duration, error) {
	// The compilation-overhead experiments measure dynamic recompilation:
	// force re-optimization of every block execution (paper §5.3 setup).
	cfg.ReuseBlockPlans = false
	inputs := s.algo.Gen(s.rows, s.cols, 77)
	start := time.Now()
	sess, err := s.algo.Run(cfg, inputs, s.overrides, nil, io.Discard)
	return sess, time.Since(start), err
}

// Table3Overhead reproduces Table 3: end-to-end compilation overhead per
// algorithm — total runtime, compiled plans (optimized DAGs / constructed
// CPlans / compiled operator classes), and codegen/compile times.
func Table3Overhead(o Options) *Table {
	t := &Table{
		Title:   "Table 3: End-to-End Compilation Overhead",
		Columns: []string{"algorithm", "total[s]", "#DAGs/#CPlans/#classes", "codegen[ms]", "compile[ms]"},
	}
	for _, s := range algoSetups(o) {
		cfg := codegen.DefaultConfig()
		sess, total, err := runAlgo(s, cfg)
		if err != nil {
			t.Add(s.algo.Name, "ERR: "+err.Error())
			continue
		}
		st := sess.Stats
		t.Add(s.algo.Name, secs(total),
			fmt.Sprintf("%d/%d/%d", st.DAGsOptimized, st.CPlansConstructed, st.OperatorsCompiled),
			ms(st.CodegenTime), ms(st.CompileTime))
	}
	return t
}

// Fig11Compile reproduces Fig. 11: operator compilation and loading time
// for the javac-analog vs the janino-analog compile path, without and with
// the plan cache.
func Fig11Compile(o Options) *Table {
	t := &Table{
		Title:   "Fig 11: Operator Compilation Time [ms] (compiler x plan cache)",
		Columns: []string{"algorithm", "Javac", "Janino", "Javac+cache", "Janino+cache"},
	}
	for _, s := range algoSetups(o) {
		row := []string{s.algo.Name}
		for _, combo := range []struct {
			compiler codegen.CompilerKind
			cache    bool
		}{
			{codegen.CompilerJavac, false},
			{codegen.CompilerJanino, false},
			{codegen.CompilerJavac, true},
			{codegen.CompilerJanino, true},
		} {
			cfg := codegen.DefaultConfig()
			cfg.Compiler = combo.compiler
			cfg.PlanCache = combo.cache
			sess, _, err := runAlgo(s, cfg)
			if err != nil {
				row = append(row, "ERR")
				continue
			}
			row = append(row, ms(sess.Stats.CompileTime))
		}
		t.Add(row...)
	}
	return t
}

// Fig12Enumeration reproduces Fig. 12: the number of evaluated plans per
// algorithm for (a) no partitioning ("all", reported as the hypothetical
// unpruned search space), (b) partitioning only, and (c) partitioning plus
// both pruning techniques.
func Fig12Enumeration(o Options) *Table {
	t := &Table{
		Title:   "Fig 12: Plan Enumeration and Pruning (#evaluated plans)",
		Columns: []string{"algorithm", "All (2^|M'|)", "Partition", "Partition+Prune"},
	}
	for _, s := range algoSetups(o) {
		row := []string{s.algo.Name}
		// All: no partitioning; the hypothetical space is 2^|M'| of the
		// merged problem (the paper reports this as infeasible-to-enumerate
		// for large DAGs).
		cfgAll := codegen.DefaultConfig()
		cfgAll.EnablePartition = false
		cfgAll.EnableCostPrune = false
		cfgAll.EnableStructPrune = false
		// The unpartitioned space is infeasible to enumerate (the paper
		// reports >1e21 hypothetical plans); fall back immediately and
		// report the space size.
		cfgAll.MaxPointsExact = 0
		sessAll, _, errAll := runAlgo(s, cfgAll)
		if errAll != nil {
			t.Add(s.algo.Name, "ERR: "+errAll.Error())
			continue
		}
		row = append(row, sessAll.Stats.HypotheticalPlans.String())

		cfgPart := codegen.DefaultConfig()
		cfgPart.EnableCostPrune = false
		cfgPart.EnableStructPrune = false
		cfgPart.MaxPointsExact = 14 // bound unpruned per-partition spaces
		sessPart, _, err := runAlgo(s, cfgPart)
		if err != nil {
			row = append(row, "ERR")
		} else {
			row = append(row, fmt.Sprintf("%d", sessPart.Stats.PlansEvaluated))
		}

		cfgFull := codegen.DefaultConfig()
		sessFull, _, err := runAlgo(s, cfgFull)
		if err != nil {
			row = append(row, "ERR")
		} else {
			row = append(row, fmt.Sprintf("%d", sessFull.Stats.PlansEvaluated))
		}
		t.Add(row...)
	}
	return t
}
