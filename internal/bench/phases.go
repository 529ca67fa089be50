package bench

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"sysml/internal/codegen"
	"sysml/internal/matrix"
)

// phaseNames are the pipeline phases a session records, in pipeline order.
var phaseNames = []string{"parse", "compile", "compress", "optimize", "execute"}

// PhaseAttribution breaks one representative workload (the Fig. 8e
// mmchain t(X)(Xv) plus a cellwise aggregate) down by pipeline phase per
// mode, attributing wall time to script compilation, the compression
// pass, fusion plan optimization + code generation, and kernel execution.
// This separates
// codegen overhead from runtime benefit: Base pays nothing in optimize
// but more in execute; the Gen variants shift time the other way.
func PhaseAttribution(o Options) *Table {
	rows := o.rows(50000)
	cols := 100
	x := matrix.Rand(rows, cols, 1, -1, 1, 7)
	v := matrix.Rand(cols, 1, 1, -1, 1, 8)
	inputs := map[string]*matrix.Matrix{"X": x, "v": v}
	script := `
		w = t(X) %*% (X %*% v)
		s = sum(X * X)
	`
	t := &Table{
		Title:   fmt.Sprintf("Phase attribution, t(X)(Xv) + sum(X*X), %dx%d", rows, cols),
		Columns: append(append([]string{"mode"}, phaseNames...), "total"),
	}
	for _, mode := range Modes {
		phases, err := PhaseBreakdown(mode, script, inputs, nil)
		if err != nil {
			panic(fmt.Sprintf("phase breakdown failed (%v): %v", mode, err))
		}
		t.Add(phaseRow([]string{mode.String()}, phases)...)
	}
	return t
}

// phaseTotal sums the pipeline phases.
func phaseTotal(phases map[string]time.Duration) time.Duration {
	var total time.Duration
	for _, name := range phaseNames {
		total += phases[name]
	}
	return total
}

// phaseRow appends the phase times and their total to the row's labels.
func phaseRow(row []string, phases map[string]time.Duration) []string {
	for _, name := range phaseNames {
		row = append(row, ms(phases[name]))
	}
	return append(row, ms(phaseTotal(phases)))
}

// sixAlgorithms are the batch_mix programs that run each of the six
// algorithms on its synthetic input (alscg.amazon for ALS-CG).
func sixAlgorithms(o Options) []mixProgram {
	return slices.DeleteFunc(batchMixAlgorithms(o), func(p mixProgram) bool {
		return p.name != "alscg.amazon" && (p.name == "alscg.syn" || !strings.HasSuffix(p.name, ".syn"))
	})
}

// PhaseAttributionAlgorithms is the phase breakdown of the six algorithms
// under Gen, each in a fresh session on its batch_mix input, with the share
// of the session that is not execution: what an iteration pays on top of its
// operators. Each row is the fastest of o.Reps runs.
func PhaseAttributionAlgorithms(o Options) *Table {
	t := &Table{
		Title:   "Phase attribution per algorithm under Gen, batch_mix sizes [ms]",
		Columns: append(append([]string{"algorithm", "data"}, phaseNames...), "total", "non-execute %"),
	}
	for _, job := range sixAlgorithms(o) {
		var best map[string]time.Duration
		for rep := 0; rep < max(o.Reps, 1); rep++ {
			s := job.session(codegen.DefaultConfig())
			if err := s.Run(job.script); err != nil {
				panic(fmt.Sprintf("phase breakdown failed (%s): %v", job.name, err))
			}
			if phases := sessionPhases(s); best == nil || phaseTotal(phases) < phaseTotal(best) {
				best = phases
			}
		}
		x := job.inputs["X"]
		row := phaseRow([]string{job.name, fmt.Sprintf("%dx%d", x.Rows, x.Cols)}, best)
		total := phaseTotal(best)
		t.Add(append(row, fmt.Sprintf("%.1f", 100*float64(total-best["execute"])/float64(total)))...)
	}
	return t
}
