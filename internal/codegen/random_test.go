package codegen_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/compress"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/obs"
	"sysml/internal/rewrite"
	"sysml/internal/runtime"
)

// dagShape configures the generator: the shape of the matrix leaves, how the
// leaf A is stored ("dense", "csr", or "cla": low-cardinality values with a
// compressed form attached), whether A carries a NaN, a +Inf and a -Inf, and
// whether aggregates draw min and max besides the sum. slowRead has every
// mode price reads at 1/100 of the default ReadBW, which puts the generated
// mains above the sibling-merge gate.
type dagShape struct {
	rows, cols int
	storage    string
	salt       bool
	minmax     bool
	slowRead   bool
}

// randomDAG is the generator at the shape it has always had.
func randomDAG(seed int64) (*hop.DAG, runtime.Env) {
	return randomDAGOf(seed, dagShape{rows: 60, cols: 24, storage: "dense"})
}

// leafA builds the leaf A of a shape. A salted A keeps every other leaf
// dense and finite: the skeletons skip the zero cells of a sparse main input
// under a product whatever the other operand holds (0·NaN is 0 by the
// sparse-safety convention), where the basic operators compute NaN.
func leafA(sh dagShape, seed int64) *matrix.Matrix {
	var a *matrix.Matrix
	switch sh.storage {
	case "csr":
		a = matrix.Rand(sh.rows, sh.cols, 0.3, 0.2, 2, seed+1).ToSparse()
	case "cla":
		a = matrix.Rand(sh.rows, sh.cols, 1, 0.2, 2, seed+1)
		for i, v := range a.Dense() {
			a.Dense()[i] = math.Round(v*2) / 2
		}
	default:
		a = matrix.Rand(sh.rows, sh.cols, 1, 0.2, 2, seed+1)
	}
	if sh.salt {
		d := a.Dense()
		for k, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			d[(int(seed)*7+k*(len(d)/3+1))%len(d)] = v
		}
	}
	if sh.storage == "cla" {
		compress.Attach(a, compress.Compress(a, compress.DefaultOptions()))
	}
	return a
}

// randomDAGOf generates a random but shape-valid HOP DAG over a fixed leaf
// population, exercising the optimizer against arbitrary operator mixes.
func randomDAGOf(seed int64, sh dagShape) (*hop.DAG, runtime.Env) {
	rng := rand.New(rand.NewSource(seed))
	n, m := sh.rows, sh.cols
	const r = 6
	d := hop.NewDAG()
	bSparsity := 0.15
	if sh.salt {
		bSparsity = 1
	}
	env := runtime.Env{
		"A": leafA(sh, seed),
		"B": matrix.Rand(n, m, bSparsity, 0.2, 2, seed+2),
		"c": matrix.Rand(n, 1, 1, 0.2, 2, seed+3),
		"r": matrix.Rand(1, m, 1, 0.2, 2, seed+7),
		"w": matrix.Rand(m, 1, 1, 0.2, 2, seed+4),
		"U": matrix.Rand(n, r, 1, 0.2, 1, seed+5),
		"V": matrix.Rand(m, r, 1, 0.2, 1, seed+6),
	}
	aNnz := int64(-1)
	if env["A"].IsSparse() {
		aNnz = int64(env["A"].Nnz())
	}
	pool := []*hop.Hop{
		d.Read("A", int64(n), int64(m), aNnz),
		d.Read("B", int64(n), int64(m), int64(env["B"].Nnz())),
		d.Read("c", int64(n), 1, -1),
		d.Read("r", 1, int64(m), -1),
		d.Read("w", int64(m), 1, -1),
		d.Read("U", int64(n), r, -1),
		d.Read("V", int64(m), r, -1),
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
			if sh.minmax {
				// Of an expression rather than a leaf, where there is one.
				if e := pick(func(h *hop.Hop) bool { return h.Cols > 1 && h.Kind != hop.OpData }); e != nil {
					a = e
				}
			}
			if a == nil {
				continue
			}
			dirs := []matrix.AggDir{matrix.DirAll, matrix.DirRow, matrix.DirCol}
			agg := matrix.AggSum
			if sh.minmax {
				agg = []matrix.AggOp{matrix.AggSum, matrix.AggMin, matrix.AggMax}[rng.Intn(3)]
			}
			pool = append(pool, d.Agg(agg, dirs[rng.Intn(3)], a))
			if sh.minmax {
				// Every aggregate is an output: one nothing consumes would be dead.
				d.Output(fmt.Sprintf("agg%d", i), pool[len(pool)-1])
			}
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

// sameWithin compares two outputs cell by cell: NaN only equals NaN, an
// infinity only itself, everything else within eps relative to the larger
// magnitude (absolute below 1).
func sameWithin(got, want *matrix.Matrix, eps float64) bool {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return false
	}
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			g, w := got.At(i, j), want.At(i, j)
			switch {
			case math.IsNaN(w) || math.IsInf(w, 0):
				if math.IsNaN(g) != math.IsNaN(w) || (!math.IsNaN(w) && g != w) {
					return false
				}
			case !(math.Abs(g-w) <= eps*math.Max(1, math.Max(math.Abs(g), math.Abs(w)))):
				return false
			}
		}
	}
	return true
}

// checkModes runs the DAG of (seed, sh) unoptimized — the basic operators —
// and optimized under every fusing mode, and compares every output.
func checkModes(t *testing.T, seed int64, sh dagShape, eps float64, metrics *obs.Metrics) {
	t.Helper()
	build, env := randomDAGOf(seed, sh)
	defer compress.Drop(env["A"])
	refDAG, _ := rewrite.Apply(build)
	ref, err := runtime.ExecuteDAG(refDAG, env, runtime.Options{})
	if err != nil {
		t.Fatalf("seed %d %+v: reference: %v", seed, sh, err)
	}
	for _, mode := range []codegen.Mode{codegen.ModeFused, codegen.ModeGen, codegen.ModeGenFA, codegen.ModeGenFNR} {
		d2, env2 := randomDAGOf(seed, sh) // fresh DAG (same structure), fresh parents
		compress.Drop(env2["A"])
		dd, _ := rewrite.Apply(d2)
		cfg := codegen.DefaultConfig()
		cfg.Mode = mode
		if sh.slowRead {
			cfg.Costs.ReadBW /= 100
		}
		dd = codegen.Optimize(dd, &cfg, codegen.NewPlanCache(true), codegen.NewStats())
		got, err := runtime.ExecuteDAG(dd, env, runtime.Options{Metrics: metrics})
		if err != nil {
			t.Fatalf("seed %d %+v mode %v: %v\n%s", seed, sh, mode, err, hop.Explain(dd.Roots()))
		}
		for name, want := range ref {
			if !sameWithin(got[name], want, eps) {
				t.Errorf("seed %d %+v mode %v: output %q differs\n%s",
					seed, sh, mode, name, hop.Explain(dd.Roots()))
			}
		}
	}
}

func TestRandomDAGEquivalenceAcrossModes(t *testing.T) {
	metrics := obs.NewMetrics()
	for seed := int64(0); seed < 60; seed++ {
		checkModes(t, seed, dagShape{rows: 60, cols: 24, storage: "dense"}, 1e-6, metrics)
	}
	// The generator is only worth its time if the fused operators it leads
	// to load their registers every way the skeleton knows.
	for _, bind := range []runtime.Binding{runtime.BindView, runtime.BindFill, runtime.BindNnz} {
		if metrics.Snapshot().Counter(string(bind)) == 0 {
			t.Errorf("no generated DAG ran a cell body under %s", bind)
		}
	}
}

// TestRandomDAGShapesStoragesAndSalt is the same differential over what the
// first generator never drew: min and max aggregates in every direction
// (colMins/colMaxs/rowMins/rowMaxs), main inputs of 2, 7 and 100 columns
// under the column- and row-vector sides of the cell bodies, a main input
// stored dense, as CSR, or with a compressed form attached, and a NaN, a +Inf
// and a -Inf in it (NaN must come out as NaN, in the same cells). Base ==
// Fused == Gen == Gen-FA == Gen-FNR within 1e-9. The mains of at most
// ~160 KB sit under the sibling-merge gate, so every DAG also runs with reads
// priced 100× slower, where sibling groups form MAgg and Horizontal
// operators.
func TestRandomDAGShapesStoragesAndSalt(t *testing.T) {
	metrics := obs.NewMetrics()
	t.Run("generated", func(t *testing.T) { // parallel subtests, one per shape and seed
		for _, cols := range []int{2, 7, 100} {
			for _, storage := range []string{"dense", "csr", "cla"} {
				for _, salt := range []bool{false, true} {
					if salt && storage == "csr" {
						continue // see leafA
					}
					for seed := int64(0); seed < 24; seed++ {
						t.Run(fmt.Sprintf("%d/%s/salt=%v/%d", cols, storage, salt, seed), func(t *testing.T) {
							t.Parallel()
							for _, slow := range []bool{false, true} {
								sh := dagShape{rows: 45, cols: cols, storage: storage, salt: salt, minmax: true, slowRead: slow}
								if seed%3 == 0 {
									sh.rows = 20000/cols + 3 // several tiles of every skeleton
								}
								checkModes(t, 100+seed, sh, 1e-9, metrics)
							}
						})
					}
				}
			}
		}
	})
	snap := metrics.Snapshot()
	for _, name := range []string{string(runtime.BindView), string(runtime.BindFill), string(runtime.BindNnz),
		string(runtime.BindDict), "compress.exec.hit", "spoof.MAgg", "spoof.Horizontal"} {
		if snap.Counter(name) == 0 {
			t.Errorf("no generated DAG counted %s", name)
		}
	}
}
