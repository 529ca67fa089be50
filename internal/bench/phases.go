package bench

import (
	"fmt"
	"io"
	"time"

	"sysml/internal/algos"
	"sysml/internal/codegen"
	"sysml/internal/data"
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

// batchMixAlgorithm is one of the six algorithms on its synthetic input at
// the size the benchmark's batch_mix runs it (the <algo>.syn programs,
// alscg.amazon).
type batchMixAlgorithm struct {
	a      algos.Algorithm
	data   string
	inputs map[string]*matrix.Matrix
	ov     map[string]float64
}

func batchMixAlgorithms(o Options) []batchMixAlgorithm {
	dense := data.Dense(o.rows(150000), 10, 3001)
	amazon := data.AmazonLike(o.rows(10000), o.rows(4000), 3065)
	const rank = 10
	batch := 512.0
	aeRows := o.rows(10000)
	if aeRows < 2048 {
		batch = float64(aeRows / 4)
	}
	return []batchMixAlgorithm{
		{algos.L2SVM, "dense", map[string]*matrix.Matrix{"X": dense, "Y": data.BinaryLabels(dense, 0.05, 3010)},
			map[string]float64{"maxiter": 10}},
		{algos.MLogreg, "dense", map[string]*matrix.Matrix{"X": dense, "Yfull": data.MultiClassIndicator(dense, 3, 3010)},
			map[string]float64{"maxiter": 5, "inneriter": 5, "k": 3}},
		{algos.GLM, "dense", map[string]*matrix.Matrix{"X": dense, "Y": data.ZeroOneLabels(data.BinaryLabels(dense, 0.05, 3010))},
			map[string]float64{"maxiter": 5, "inneriter": 5}},
		{algos.KMeans, "dense", map[string]*matrix.Matrix{"X": dense, "C0": matrix.Rand(5, 10, 1, -1, 1, 3010)},
			map[string]float64{"maxiter": 10}},
		{algos.ALSCG, "Amazon-like", map[string]*matrix.Matrix{"X": amazon,
			"U0": matrix.Rand(amazon.Rows, rank, 1, 0.01, 0.1, 3061), "V0": matrix.Rand(amazon.Cols, rank, 1, 0.01, 0.1, 3062)},
			map[string]float64{"maxiter": 2, "rank": rank}},
		{algos.AutoEncoder, "dense", map[string]*matrix.Matrix{"X": data.Dense(aeRows, 50, 3066)},
			map[string]float64{"epochs": 1, "batch": batch, "H1": 64, "H2": 2}},
	}
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
	for _, job := range batchMixAlgorithms(o) {
		var best map[string]time.Duration
		for rep := 0; rep < max(o.Reps, 1); rep++ {
			s, err := job.a.Run(codegen.DefaultConfig(), job.inputs, job.ov, nil, io.Discard)
			if err != nil {
				panic(fmt.Sprintf("phase breakdown failed (%s): %v", job.a.Name, err))
			}
			if phases := sessionPhases(s); best == nil || phaseTotal(phases) < phaseTotal(best) {
				best = phases
			}
		}
		x := job.inputs["X"]
		row := phaseRow([]string{job.a.Name, fmt.Sprintf("%dx%d %s", x.Rows, x.Cols, job.data)}, best)
		total := phaseTotal(best)
		t.Add(append(row, fmt.Sprintf("%.1f", 100*float64(total-best["execute"])/float64(total)))...)
	}
	return t
}
