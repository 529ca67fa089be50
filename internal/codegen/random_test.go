package codegen_test

import (
	"fmt"
	"math/rand"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/obs"
	"sysml/internal/rewrite"
	"sysml/internal/runtime"
)

// randomDAG generates a random but shape-valid HOP DAG over a fixed leaf
// population, exercising the optimizer against arbitrary operator mixes.
func randomDAG(seed int64) (*hop.DAG, runtime.Env) {
	rng := rand.New(rand.NewSource(seed))
	const n, m, r = 60, 24, 6
	d := hop.NewDAG()
	env := runtime.Env{
		"A": matrix.Rand(n, m, 1, 0.2, 2, seed+1),
		"B": matrix.Rand(n, m, 0.15, 0.2, 2, seed+2),
		"c": matrix.Rand(n, 1, 1, 0.2, 2, seed+3),
		"r": matrix.Rand(1, m, 1, 0.2, 2, seed+7),
		"w": matrix.Rand(m, 1, 1, 0.2, 2, seed+4),
		"U": matrix.Rand(n, r, 1, 0.2, 1, seed+5),
		"V": matrix.Rand(m, r, 1, 0.2, 1, seed+6),
	}
	pool := []*hop.Hop{
		d.Read("A", n, m, -1),
		d.Read("B", n, m, int64(env["B"].Nnz())),
		d.Read("c", n, 1, -1),
		d.Read("r", 1, m, -1),
		d.Read("w", m, 1, -1),
		d.Read("U", n, r, -1),
		d.Read("V", m, r, -1),
	}
	// Positive-value-safe op sets avoid NaN mismatches from reordered
	// floating-point reductions feeding log/sqrt of near-zero values.
	binOps := []matrix.BinOp{matrix.BinAdd, matrix.BinMul, matrix.BinMax, matrix.BinMin}
	unOps := []matrix.UnOp{matrix.UnAbs, matrix.UnSqrt, matrix.UnSigmoid, matrix.UnSign}

	pick := func(pred func(h *hop.Hop) bool) *hop.Hop {
		var cands []*hop.Hop
		for _, h := range pool {
			if pred(h) {
				cands = append(cands, h)
			}
		}
		if len(cands) == 0 {
			return nil
		}
		return cands[rng.Intn(len(cands))]
	}
	anyMatrix := func(h *hop.Hop) bool { return !h.IsScalar() }
	nSteps := 4 + rng.Intn(8)
	for i := 0; i < nSteps; i++ {
		switch rng.Intn(7) {
		case 0, 6: // binary same shape / column- or row-vector broadcast
			a := pick(anyMatrix)
			if i%2 == 1 {
				a = pool[1] // the sparse leaf as the (sparse-safe, under *) main input
			}
			b := pick(func(h *hop.Hop) bool {
				return h.Rows == a.Rows && h.Cols == a.Cols ||
					h.Cols == 1 && h.Rows == a.Rows || h.Rows == 1 && h.Cols == a.Cols || h.IsScalar()
			})
			if b == nil {
				continue
			}
			pool = append(pool, d.Binary(binOps[rng.Intn(len(binOps))], a, b))
		case 1: // scalar op
			a := pick(anyMatrix)
			pool = append(pool, d.Binary(binOps[rng.Intn(len(binOps))], a, d.Lit(0.5+rng.Float64())))
		case 2: // unary
			a := pick(anyMatrix)
			pool = append(pool, d.Unary(unOps[rng.Intn(len(unOps))], a))
		case 3: // aggregate
			a := pick(func(h *hop.Hop) bool { return h.Cols > 1 })
			if a == nil {
				continue
			}
			dirs := []matrix.AggDir{matrix.DirAll, matrix.DirRow, matrix.DirCol}
			pool = append(pool, d.Agg(matrix.AggSum, dirs[rng.Intn(3)], a))
		case 4: // matmult with a narrow right side
			a := pick(func(h *hop.Hop) bool { return h.Cols > 1 })
			if a == nil {
				continue
			}
			b := pick(func(h *hop.Hop) bool { return h.Rows == a.Cols && h.Cols <= 8 })
			if b == nil {
				continue
			}
			pool = append(pool, d.MatMult(a, b))
		case 5: // transpose then multiply pattern
			a := pick(func(h *hop.Hop) bool { return h.Rows > 1 && h.Cols > 1 })
			b := pick(func(h *hop.Hop) bool { return h.Rows == a.Rows && h.Cols <= 8 })
			if a == nil || b == nil {
				continue
			}
			pool = append(pool, d.MatMult(d.Transpose(a), b))
		}
	}
	outs := 1 + rng.Intn(2)
	for i := 0; i < outs; i++ {
		h := pool[len(pool)-1-i]
		if h.Cells() > 1 {
			// Keep outputs small-ish by aggregating large results.
			h = d.Sum(h)
		}
		d.Output(fmt.Sprintf("out%d", i), h)
	}
	// Also emit one matrix output to exercise NoAgg fusion.
	d.Output("m0", pool[len(pool)-1])
	return d, env
}

func TestRandomDAGEquivalenceAcrossModes(t *testing.T) {
	modes := []codegen.Mode{codegen.ModeFused, codegen.ModeGen, codegen.ModeGenFA, codegen.ModeGenFNR}
	metrics := obs.NewMetrics()
	for seed := int64(0); seed < 60; seed++ {
		build, env := randomDAG(seed)
		refDAG, _ := rewrite.Apply(build)
		ref, err := runtime.ExecuteDAG(refDAG, env, runtime.Options{})
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		for _, mode := range modes {
			d2, env2 := randomDAG(seed) // fresh DAG (same structure), fresh parents
			_ = env2
			dd, _ := rewrite.Apply(d2)
			cfg := codegen.DefaultConfig()
			cfg.Mode = mode
			dd = codegen.Optimize(dd, &cfg, codegen.NewPlanCache(true), codegen.NewStats())
			got, err := runtime.ExecuteDAG(dd, env, runtime.Options{Metrics: metrics})
			if err != nil {
				t.Fatalf("seed %d mode %v: %v\n%s", seed, mode, err, hop.Explain(dd.Roots()))
			}
			for name, want := range ref {
				if !got[name].EqualsApprox(want, 1e-6) {
					t.Errorf("seed %d mode %v: output %q differs\n%s",
						seed, mode, name, hop.Explain(dd.Roots()))
				}
			}
		}
	} // The generator is only worth its time if the fused operators it leads
	// to load their registers every way the skeleton knows.
	for _, bind := range []runtime.Binding{runtime.BindView, runtime.BindFill, runtime.BindNnz} {
		if metrics.Snapshot().Counter(string(bind)) == 0 {
			t.Errorf("no generated DAG ran a cell body under %s", bind)
		}
	}
}
