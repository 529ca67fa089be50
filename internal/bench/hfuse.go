package bench

import (
	"fmt"
	"io"

	"sysml/internal/codegen"
	"sysml/internal/cplan"
	"sysml/internal/dml"
	"sysml/internal/matrix"
	"sysml/internal/par"
	"sysml/internal/runtime"
	"sysml/internal/vector"
)

// hfuseScript is the flagship sibling workload: three consumers of X that
// horizontal fusion merges into one scan (column aggregate, full
// aggregate, cellwise map).
const hfuseScript = "C = colSums(X)\ns = sum(X^2)\nY = X*3+1\n"

// Horizontal-fusion gate thresholds.
const (
	// hfuseMinSpeedup: the merged single-scan plan must not lose to the same
	// optimizer with horizontal fusion disabled on the flagship sibling
	// script (warm plan cache). The limit was 1.5 while the unmerged plan's
	// colSums(X) was a scalar loop on one goroutine (3.6 of its 8.2 ms at
	// 2048x2048); since ISSUE 20 that operator runs the rank-4 kernel on
	// every worker, the unmerged plan takes 4.5 ms against the merged one's
	// unchanged 4.1-4.4 ms, and what is left is what sharing two scans of an
	// L3-resident X under a 32 MB output write is worth on the gate's host:
	// 1.07-1.30x over eight readings (EXPERIMENTS.md "ISSUE 20", Gates).
	hfuseMinSpeedup = 1.0

	// hfuseMergedMaxGapPct: the merged operator — one pass of the cell
	// skeleton running each root's dense program — may be at most this much
	// slower than a hand-written ideal fused loop over the same data (the
	// JIT-ideal Fig. 10 analog). The only check that caught ISSUE 22's
	// sibling roots re-reading main from L3 at 2048 columns.
	hfuseMergedMaxGapPct = 10.0
)

// hfuseSession builds a warm session over x for the flagship script.
func hfuseSession(x *matrix.Matrix, disable bool) *dml.Session {
	cfg := codegen.DefaultConfig()
	cfg.DisableHFuse = disable
	s := dml.NewSession(cfg)
	s.Out = io.Discard
	s.Bind("X", x)
	return s
}

// hfusePlan is the CPlan of the merged flagship operator: colSums(X),
// sum(X^2), and X*3+1 as three roots over one main input.
func hfusePlan() *cplan.Plan {
	roots := []*cplan.CNode{
		cplan.Main(0),
		cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Main(0)),
		cplan.Binary(matrix.BinAdd,
			cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Lit(3)), cplan.Lit(1)),
	}
	return &cplan.Plan{
		Type:   cplan.TemplateHorizontal,
		Roots:  roots,
		AggOps: []matrix.AggOp{matrix.AggSum, matrix.AggSum, matrix.AggSum},
		HKinds: []cplan.CellType{cplan.CellColAgg, cplan.CellFullAgg, cplan.CellNoAgg},
	}
}

// hfuseIdeal is the hand-written ideal fused loop the merged operator is
// measured against: one parallel pass producing column sums, the squared
// sum, and the mapped output. It keeps one partial per participant, the
// loop the gate has always measured; its results are discarded.
func hfuseIdeal(x *matrix.Matrix) {
	rows, cols := x.Rows, x.Cols
	xd := x.Dense()
	y := matrix.NewDenseUninit(rows, cols)
	yd := y.Dense()
	nw, _ := par.Default.Chunks(rows, 16)
	colP := make([][]float64, nw)
	sumP := make([]float64, nw)
	par.Default.Fold(rows, 16, func(w, _, lo, hi int) {
		cp := colP[w]
		if cp == nil {
			cp = make([]float64, cols)
			colP[w] = cp
		}
		acc := 0.0
		for i := lo; i < hi; i++ {
			base := i * cols
			for j := 0; j < cols; j++ {
				v := xd[base+j]
				cp[j] += v
				acc += v * v
				yd[base+j] = v*3 + 1
			}
		}
		sumP[w] += acc
	})
	colSums := matrix.NewDense(1, cols)
	cd := colSums.Dense()
	for _, cp := range colP {
		if cp != nil {
			vector.Add(cp, cd, 0, 0, cols)
		}
	}
	total := 0.0
	for _, v := range sumP {
		total += v
	}
	_ = total
	colSums.Release()
	y.Release()
}

// hfuseShape measures both checks on one rows×cols input.
func hfuseShape(rounds, rows, cols int) []Check {
	x := matrix.Rand(rows, cols, 1, -1, 1, 41)
	run := func(s *dml.Session) func() {
		return func() {
			if err := s.Run(hfuseScript); err != nil {
				panic(fmt.Sprintf("hfuse bench failed: %v", err))
			}
		}
	}
	op := cplan.Compile(hfusePlan(), "TMP_HF")
	e2e := interleavedMin(rounds, run(hfuseSession(x, true)), run(hfuseSession(x, false)))
	ops := interleavedMin(rounds, func() { hfuseIdeal(x) }, func() {
		for _, m := range runtime.ExecHorizontal(op, x, nil) {
			m.Release()
		}
	})
	dims := fmt.Sprintf("%dx%d, ", rows, cols)
	return []Check{
		ratio("sibling merge speedup", msec(e2e[0]), msec(e2e[1]), hfuseMinSpeedup, "ms", dims+"DisableHFuse vs merged: "),
		overhead("merged operator vs ideal fused loop", ops[0], ops[1], hfuseMergedMaxGapPct, dims+"ideal loop vs merged operator: "),
	}
}

// HFuse measures horizontal fusion on the flagship sibling script:
//
//  1. End-to-end speedup of the merged single-scan plan over the same
//     optimizer with horizontal fusion disabled, warm plan cache (gate:
//     >= 1.0x, see hfuseMinSpeedup).
//  2. The merged operator vs a hand-written ideal fused loop (gate: < 10%
//     gap).
//
// Both run on two shapes: rows×2048, where a row is wider than a step of the
// map root's registers, and the benchmark's 100000×100, where per-row dispatch
// would show. That merged results equal unfused ones and that the plan merges
// at scale only are Tier-1 tests (EXPERIMENTS.md, "hfuse").
func HFuse(o Options) []Check {
	rounds := 10 * max(o.Reps, 3)
	return append(hfuseShape(rounds, o.rows(2048), 2048), hfuseShape(rounds, o.rows(100000), 100)...)
}
