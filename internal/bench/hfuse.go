package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"sysml/internal/codegen"
	"sysml/internal/cplan"
	"sysml/internal/dml"
	"sysml/internal/matrix"
	"sysml/internal/par"
	"sysml/internal/runtime"
	"sysml/internal/vector"
)

// hfuseFile is the JSON artifact HFuse writes next to the harness output;
// CI gates on its "pass" field.
const hfuseFile = "BENCH_hfuse.json"

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
	// JIT-ideal Fig. 10 analog).
	hfuseMergedMaxGapPct = 10.0

	// hfuseMaxRelErr: merged execution must match unfused Base-mode results
	// within this relative tolerance.
	hfuseMaxRelErr = 1e-9
)

// HFuseShape holds the timing gates of one input shape.
type HFuseShape struct {
	Rows         int     `json:"rows"`
	Cols         int     `json:"cols"`
	BaselineMS   float64 `json:"baseline_ms"` // Gen with DisableHFuse
	MergedMS     float64 `json:"merged_ms"`   // Gen with horizontal fusion
	Speedup      float64 `json:"speedup"`
	SpeedupPass  bool    `json:"speedup_pass"` // >= hfuseMinSpeedup
	IdealMS      float64 `json:"ideal_ms"`     // hand-written fused loop
	MergedOpMS   float64 `json:"merged_op_ms"` // the merged operator alone
	InterpMS     float64 `json:"interp_ms"`    // interpreted genexec reference
	MergedGapPct float64 `json:"merged_gap_pct"`
	MergedPass   bool    `json:"merged_pass"` // gap < 10%
}

// HFuseResult is the serialized outcome of the horizontal-fusion gates.
type HFuseResult struct {
	Shapes       []HFuseShape `json:"shapes"`
	MaxRelErr    float64      `json:"max_rel_err"`
	EquivPass    bool         `json:"equiv_pass"`    // fused == unfused within 1e-9
	PlanPass     bool         `json:"plan_pass"`     // merged at scale, declined on tiny input
	MergedPlan   bool         `json:"merged_plan"`   // flagship explain shows a Horizontal operator
	DeclinedTiny bool         `json:"declined_tiny"` // adversarial explain keeps vertical-only plan
	Pass         bool         `json:"pass"`
}

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

// hfuseInterpreted is the merged plan as generated code that is not compiled
// at all: one sequential pass that walks every root's CNode tree per cell
// (cplan.InterpretCell) and folds by hand. Reported for reference only.
func hfuseInterpreted(plan *cplan.Plan, x *matrix.Matrix) {
	ctx, cols := cplan.NewCtx(nil), x.Cols
	colSums, y, sum := make([]float64, cols), matrix.NewDenseUninit(x.Rows, cols), 0.0
	for k, a := range x.Dense() {
		colSums[k%cols] += cplan.InterpretCell(plan.Roots[0], ctx, a, 0, k/cols, k%cols)
		sum += cplan.InterpretCell(plan.Roots[1], ctx, a, 0, k/cols, k%cols)
		y.Dense()[k] = cplan.InterpretCell(plan.Roots[2], ctx, a, 0, k/cols, k%cols)
	}
	_ = sum
	y.Release()
}

// hfuseIdeal is the hand-written ideal fused loop the merged operator is
// measured against: one parallel pass producing column sums, the squared
// sum, and the mapped output.
func hfuseIdeal(x *matrix.Matrix) {
	rows, cols := x.Rows, x.Cols
	xd := x.Dense()
	y := matrix.NewDenseUninit(rows, cols)
	yd := y.Dense()
	nw, _ := par.Chunks(rows, 16)
	colP := make([][]float64, nw)
	sumP := make([]float64, nw)
	par.ForIndexed(rows, 16, func(w, lo, hi int) {
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

// maxRelDiffHF returns the maximum relative element difference of two
// same-shaped dense results.
func maxRelDiffHF(a, b *matrix.Matrix) float64 {
	ad, bd := a.ToDense().Dense(), b.ToDense().Dense()
	worst := 0.0
	for i := range ad {
		d := math.Abs(ad[i] - bd[i])
		if d == 0 {
			continue
		}
		if s := math.Abs(ad[i]); s > 1 {
			d /= s
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// interleavedMin runs the variants in turn — two warm-up rounds, then
// rounds timed ones — and returns each variant's minimum wall time:
// scheduler noise and host drift hit all variants alike.
func interleavedMin(rounds int, fns ...func()) []time.Duration {
	best := make([]time.Duration, len(fns))
	for r := -2; r < rounds; r++ {
		for i, fn := range fns {
			start := time.Now()
			fn()
			if d := time.Since(start); r >= 0 && (best[i] == 0 || d < best[i]) {
				best[i] = d
			}
		}
	}
	return best
}

// hfuseShape measures the two timing gates on one rows×cols input.
func hfuseShape(rounds, rows, cols int) HFuseShape {
	x := matrix.Rand(rows, cols, 1, -1, 1, 41)
	run := func(s *dml.Session) func() {
		return func() {
			if err := s.Run(hfuseScript); err != nil {
				panic(fmt.Sprintf("hfuse bench failed: %v", err))
			}
		}
	}
	plan := hfusePlan()
	execH := func(op *cplan.Operator) func() {
		return func() {
			for _, m := range runtime.ExecHorizontal(op, x, nil) {
				m.Release()
			}
		}
	}
	e2e := interleavedMin(rounds, run(hfuseSession(x, false)), run(hfuseSession(x, true)))
	ops := interleavedMin(rounds, execH(cplan.Compile(plan, "TMP_HF")), func() { hfuseIdeal(x) })
	interp := interleavedMin(1, func() { hfuseInterpreted(plan, x) })
	msf := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	r := HFuseShape{
		Rows: rows, Cols: cols,
		MergedMS: msf(e2e[0]), BaselineMS: msf(e2e[1]), Speedup: float64(e2e[1]) / float64(e2e[0]),
		MergedOpMS: msf(ops[0]), IdealMS: msf(ops[1]), InterpMS: msf(interp[0]),
		MergedGapPct: 100 * (float64(ops[0]) - float64(ops[1])) / float64(ops[1]),
	}
	r.SpeedupPass = r.Speedup >= hfuseMinSpeedup
	r.MergedPass = r.MergedGapPct < hfuseMergedMaxGapPct
	return r
}

// HFuse measures horizontal fusion and writes BENCH_hfuse.json:
//
//  1. End-to-end speedup of the merged single-scan plan over the same
//     optimizer with horizontal fusion disabled, flagship sibling script,
//     warm plan cache (gate: >= 1.0x, see hfuseMinSpeedup).
//  2. The merged operator vs a hand-written ideal fused loop (gate: < 10%
//     gap); the interpreted genexec-style program is reported for
//     reference (the pre-JIT analog, not gated).
//  3. Merged results vs unfused Base-mode results (gate: max relative
//     error < 1e-9).
//  4. Plan quality: the flagship script at scale must merge (EXPLAIN
//     shows a Horizontal operator) while an adversarial tiny shared input
//     must keep the vertical-only plan.
//
// Gates 1 and 2 run on two shapes: rows×2048, where a row is four steps of a
// dense program, and the benchmark's 100000×100, where per-row dispatch
// would show.
func HFuse(o Options) *Table {
	rounds := 10 * max(o.Reps, 3)
	shapes := []HFuseShape{
		hfuseShape(rounds, o.rows(2048), 2048),
		hfuseShape(rounds, o.rows(100000), 100),
	}
	x := matrix.Rand(o.rows(2048), 2048, 1, -1, 1, 41)

	// --- Gate 3: merged vs unfused results. ---
	sGen := hfuseSession(x, false)
	sBase := hfuseSession(x, false)
	sBase.Config.Mode = codegen.ModeBase
	for _, s := range []*dml.Session{sGen, sBase} {
		if err := s.Run(hfuseScript); err != nil {
			panic(fmt.Sprintf("hfuse bench failed: %v", err))
		}
	}
	worst := 0.0
	for _, name := range []string{"C", "s", "Y"} {
		a, b := sGen.Env[name], sBase.Env[name]
		if a == nil || b == nil {
			worst = math.Inf(1)
			break
		}
		if d := maxRelDiffHF(a, b); d > worst {
			worst = d
		}
	}

	// --- Gate 4: merged at scale, declined on a tiny shared input. ---
	explain := func(m *matrix.Matrix) string {
		s := hfuseSession(m, false)
		text, err := s.Explain(hfuseScript)
		if err != nil {
			panic(fmt.Sprintf("hfuse explain failed: %v", err))
		}
		return text
	}
	mergedPlan := strings.Contains(explain(x), "Horizontal TMP")
	tiny := matrix.Rand(100, 100, 1, -1, 1, 42)
	declinedTiny := !strings.Contains(explain(tiny), "Horizontal TMP")

	res := HFuseResult{
		Shapes:       shapes,
		MaxRelErr:    worst,
		EquivPass:    worst < hfuseMaxRelErr,
		MergedPlan:   mergedPlan,
		DeclinedTiny: declinedTiny,
	}
	res.PlanPass = res.MergedPlan && res.DeclinedTiny
	res.Pass = res.EquivPass && res.PlanPass
	for _, sh := range shapes {
		res.Pass = res.Pass && sh.SpeedupPass && sh.MergedPass
	}
	if data, err := json.MarshalIndent(res, "", "  "); err == nil {
		if err := os.WriteFile(hfuseFile, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(o.Out, "hfuse: cannot write %s: %v\n", hfuseFile, err)
		}
	}

	t := &Table{
		Title:   "Horizontal fusion gates: sibling merge speedup, merged operator vs ideal loop, equivalence, plan quality",
		Columns: []string{"gate", "baseline", "new", "delta", "pass"},
	}
	for _, sh := range shapes {
		dims := fmt.Sprintf(" %dx%d", sh.Rows, sh.Cols)
		t.Add("sibling merge"+dims, fmt.Sprintf("%.2f", sh.BaselineMS), fmt.Sprintf("%.2f", sh.MergedMS),
			fmt.Sprintf("%.2fx (need >=%.1fx)", sh.Speedup, hfuseMinSpeedup), fmt.Sprintf("%v", sh.SpeedupPass))
		t.Add("merged operator vs ideal loop"+dims, fmt.Sprintf("%.2f", sh.IdealMS), fmt.Sprintf("%.2f", sh.MergedOpMS),
			fmt.Sprintf("%+.1f%% (limit <%.0f%%; interp %.2f)", sh.MergedGapPct, hfuseMergedMaxGapPct, sh.InterpMS),
			fmt.Sprintf("%v", sh.MergedPass))
	}
	t.Add("fused == unfused", "Base", "Gen",
		fmt.Sprintf("maxrel %.2g (limit <%.0g)", worst, hfuseMaxRelErr), fmt.Sprintf("%v", res.EquivPass))
	t.Add("plan quality", fmt.Sprintf("tiny declined=%v", declinedTiny),
		fmt.Sprintf("scale merged=%v", mergedPlan), "", fmt.Sprintf("%v", res.PlanPass))
	return t
}
