package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sysml/internal/compress"
	"sysml/internal/cplan"
	"sysml/internal/matrix"
	"sysml/internal/par"
)

// The differential test of the cell-bound skeleton: every operator runs its
// one body, the register program, under whatever binding its inputs call
// for, against a naive oracle — cplan.InterpretCell per visited cell, then
// the root's aggregation in a plain loop. Values must agree within 1e-12
// with NaN and ±Inf in the same places, the output must have the oracle's
// form (main's CSR pattern under non-zero iteration), and the binding taken
// is pinned, so that a body that silently gathers registers on inputs it
// could view fails here rather than in a benchmark.

// Side inputs of every test plan: 0 read cell by cell (main-shaped), 1
// scalar, 2 column vector, 3 row vector.
var (
	tY   = cplan.Side(0, cplan.AccessCell, 0)
	tS   = cplan.Side(1, cplan.AccessScalar, 0)
	tCol = cplan.Side(2, cplan.AccessCol, 0)
	tRow = cplan.Side(3, cplan.AccessRow, 0)
)

func tBin(op matrix.BinOp, a, b *cplan.CNode) *cplan.CNode { return cplan.Binary(op, a, b) }

// tierBodies are the pinned cell bodies, followed by generated ones.
func tierBodies() map[string]*cplan.CNode {
	x := cplan.Main(0)
	axpy := tBin(matrix.BinAdd, tBin(matrix.BinMul, x, cplan.Lit(3)), cplan.Lit(1))
	bodies := map[string]*cplan.CNode{
		"x":         x,
		"y":         tY,
		"x*y*y":     tBin(matrix.BinMul, tBin(matrix.BinMul, x, tY), tY), // sum(X*Y*Z)
		"x^2":       tBin(matrix.BinPow, x, cplan.Lit(2)),
		"x*x":       tBin(matrix.BinMul, x, x),
		"x*3+1":     axpy,
		"0-x":       tBin(matrix.BinSub, cplan.Lit(0), x),
		"exp(x)*s":  tBin(matrix.BinMul, cplan.Unary(matrix.UnExp, x), tS),
		"log(x)":    cplan.Unary(matrix.UnLog, x), // NaN for negative cells
		"(x*3+1)/y": tBin(matrix.BinDiv, axpy, tY),
		"x*col":     tBin(matrix.BinMul, x, tCol), // broadcasts: a scalar per row, one row for all
		"x+row":     tBin(matrix.BinAdd, x, tRow),
		"x/col-row": tBin(matrix.BinSub, tBin(matrix.BinDiv, x, tCol), tRow),
		"row":       tRow,
		"col*y":     tBin(matrix.BinMul, tCol, tY),
		"s+2":       tBin(matrix.BinAdd, tS, cplan.Lit(2)), // no vector leaf
		"7":         cplan.Lit(7),
	}
	rng := rand.New(rand.NewSource(16))
	bins := []matrix.BinOp{matrix.BinAdd, matrix.BinSub, matrix.BinMul, matrix.BinDiv,
		matrix.BinMin, matrix.BinMax, matrix.BinPow, matrix.BinGt, matrix.BinNeq}
	uns := []matrix.UnOp{matrix.UnExp, matrix.UnAbs, matrix.UnNeg, matrix.UnSqrt, matrix.UnSigmoid, matrix.UnSign}
	var gen func(depth int) *cplan.CNode
	gen = func(depth int) *cplan.CNode {
		if depth == 0 || rng.Intn(4) == 0 {
			switch rng.Intn(8) {
			case 0, 1, 2:
				return x
			case 3:
				return tY
			case 4:
				return tS
			case 5:
				return tCol
			case 6:
				return tRow
			}
			return cplan.Lit(float64(rng.Intn(5)) - 1.5)
		}
		if rng.Intn(3) == 0 {
			return cplan.Unary(uns[rng.Intn(len(uns))], gen(depth-1))
		}
		return tBin(bins[rng.Intn(len(bins))], gen(depth-1), gen(depth-1))
	}
	for i := 0; i < 12; i++ {
		bodies[fmt.Sprintf("gen%d", i)] = gen(3)
	}
	return bodies
}

// leaves reports whether a body reads the side addressed cell by cell, and
// the main input.
func leaves(n *cplan.CNode) (flat, main bool) {
	if n.Kind == cplan.NodeSide || n.Kind == cplan.NodeMain {
		return n.Kind == cplan.NodeSide && n.Access == cplan.AccessCell, n.Kind == cplan.NodeMain
	}
	for _, c := range n.Children {
		f, m := leaves(c)
		flat, main = flat || f, main || m
	}
	return flat, main
}

// tierInput is one set of inputs of a rows×cols plan.
type tierInput struct {
	name       string
	main       *matrix.Matrix
	sides      []*matrix.Matrix
	sparseSide bool // side 0 is bound sparse: read cell by cell it is densified or gathered
	memo       map[oracleKey][]float64
}

// tierInputs returns the inputs of one shape (the same ones every time, so
// that the oracle's per-body values carry over).
func tierInputs(rows, cols int, seed int64) []*tierInput {
	key := [3]int{rows, cols, int(seed)}
	if ins, ok := tierInputCache[key]; ok {
		return ins
	}
	dense := func() *matrix.Matrix { return matrix.Rand(rows, cols, 1, -1, 2, seed) }
	sides := func(flatCols int) []*matrix.Matrix {
		return []*matrix.Matrix{
			matrix.Rand(rows, flatCols, 1, -1, 2, seed+1),
			matrix.NewScalar(1.5),
			matrix.Rand(rows, 1, 1, -1, 2, seed+2),
			matrix.Rand(1, cols, 1, -1, 2, seed+3),
		}
	}
	special := dense()
	for k, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if d := special.Dense(); k*7 < len(d) {
			d[len(d)-1-k*7] = v
		}
	}
	// A sparse main with rows longer than one step (where the shape has them)
	// and every third row empty.
	long := matrix.Rand(rows, cols, 0.7, -1, 2, seed)
	for i := 0; i < rows; i += 3 {
		clear(long.Dense()[i*cols : (i+1)*cols])
	}
	sparseSides := sides(cols)
	sparseSides[0] = matrix.Rand(rows, cols, 0.3, -1, 2, seed+1).ToSparse()
	sparseSides[2] = sparseSides[2].ToSparse() // a sparse column vector
	vec := rows == 1 || cols == 1              // a sparse vector is densified when bound and then viewed
	tierInputCache[key] = []*tierInput{
		{name: "dense", main: dense(), sides: sides(cols)},
		{name: "dense+nan+inf", main: special, sides: sides(cols)},
		{name: "sparse-main", main: matrix.Rand(rows, cols, 0.3, -1, 2, seed).ToSparse(), sides: sides(cols)},
		{name: "sparse-main-long-and-empty-rows", main: long.ToSparse(), sides: sides(cols)},
		{name: "sparse-main+sparse-side", main: matrix.Rand(rows, cols, 0.3, -1, 2, seed).ToSparse(), sides: sparseSides, sparseSide: !vec},
		{name: "sparse-side", main: dense(), sides: sparseSides, sparseSide: !vec},
		{name: "wide-side", main: dense(), sides: sides(cols + 1)}, // viewed by its own row stride
	}
	return tierInputCache[key]
}

var tierInputCache = map[[3]int][]*tierInput{}

// tierShapes: 1, 511, 512 and 513 cells as one column and as one row, a few
// 100-column rows and more of them than one tile holds, rows of an odd
// width, and a column longer than the steps over its stored cells.
var tierShapes = [][2]int{
	{1, 1}, {511, 1}, {512, 1}, {513, 1}, {1, 511}, {1, 512}, {1, 513},
	{1, 100}, {5, 100}, {6, 100}, {8192/100 + 2, 100}, {3, 513}, {2, 1100}, {9000, 1},
}

var tierAggs = []matrix.AggOp{matrix.AggSum, matrix.AggSumSq, matrix.AggMin, matrix.AggMax}

// sameCell compares one output cell; scale is the magnitude its rounding
// error is relative to (the cell itself, or the sum of the magnitudes a sum
// added up).
func sameCell(got, want, scale float64) bool {
	if math.IsNaN(want) || math.IsInf(want, 0) {
		return math.IsNaN(got) == math.IsNaN(want) && (math.IsNaN(want) || got == want)
	}
	return math.Abs(got-want) <= 1e-12*(1+math.Abs(scale))
}

// oracleRoot is one root of the plan under test.
type oracleRoot struct {
	kind cplan.CellType
	agg  matrix.AggOp
	body *cplan.CNode
}

// visit calls fn for the cells of main a pass visits, in visiting order: the
// stored cells under non-zero iteration, all cells otherwise.
func visit(main *matrix.Matrix, nnz bool, fn func(i, j int, a float64)) {
	for i := 0; i < main.Rows; i++ {
		if nnz {
			vals, cix := main.Sparse().Row(i)
			for t, j := range cix {
				fn(i, j, vals[t])
			}
			continue
		}
		for j := 0; j < main.Cols; j++ {
			fn(i, j, main.At(i, j))
		}
	}
}

// cellValues is the body's value at every visited cell, in visiting order:
// cplan.InterpretCell walking the tree. The tree walk is what the oracle
// costs, so the values are kept per body for the aggregations that follow.
func (in *tierInput) cellValues(body *cplan.CNode, nnz bool, dot func(i, j int) float64) []float64 {
	key := oracleKey{body, nnz}
	if v, ok := in.memo[key]; ok {
		return v
	}
	ctx := cplan.NewCtx(in.sides)
	var vals []float64
	visit(in.main, nnz, func(i, j int, a float64) {
		d := 0.0
		if dot != nil {
			d = dot(i, j)
		}
		vals = append(vals, cplan.InterpretCell(body, ctx, a, d, i, j))
	})
	if in.memo == nil {
		in.memo = map[oracleKey][]float64{}
	}
	in.memo[key] = vals
	return vals
}

type oracleKey struct {
	body *cplan.CNode
	nnz  bool
}

// oracle evaluates the roots the slow way: which cells are visited (the
// stored ones when every root is sparse-safe, the main input sparse and
// every aggregate a sum; all otherwise), the tree walker for each, and a
// plain fold. dot supplies the Outer leaf. It returns each root's output,
// the magnitude each output cell summed over, and whether the pass is the
// non-zero iteration.
func oracle(roots []oracleRoot, in *tierInput, dot func(i, j int) float64) (outs, scales []*matrix.Matrix, nnz bool) {
	rows, cols := in.main.Rows, in.main.Cols
	nnz = in.main.IsSparse()
	for _, r := range roots {
		sum := r.agg == matrix.AggSum || r.agg == matrix.AggSumSq
		nnz = nnz && cplan.ProbeSparseSafe(r.body) && (r.kind == cplan.CellNoAgg || sum)
	}
	for _, r := range roots {
		shape := map[cplan.CellType][2]int{cplan.CellNoAgg: {rows, cols}, cplan.CellRowAgg: {rows, 1},
			cplan.CellColAgg: {1, cols}, cplan.CellFullAgg: {1, 1}}[r.kind]
		out, scale := matrix.NewDense(shape[0], shape[1]), matrix.NewDense(shape[0], shape[1])
		od, sd := out.Dense(), scale.Dense()
		if r.kind != cplan.CellNoAgg {
			for k := range od {
				od[k] = cplan.AggInit(r.agg)
			}
		}
		vals, n := in.cellValues(r.body, nnz, dot), 0
		visit(in.main, nnz, func(i, j int, _ float64) {
			v, k := vals[n], 0
			n++
			switch r.kind {
			case cplan.CellNoAgg:
				k = i*cols + j
			case cplan.CellRowAgg:
				k = i
			case cplan.CellColAgg:
				k = j
			}
			switch {
			case r.kind == cplan.CellNoAgg:
				od[k], sd[k] = v, v
			case r.agg == matrix.AggSumSq:
				od[k], sd[k] = od[k]+v*v, sd[k]+v*v
			case r.agg == matrix.AggSum:
				od[k], sd[k] = od[k]+v, sd[k]+math.Abs(v)
			case r.agg == matrix.AggMin:
				od[k] = matrix.BinMin.Apply(od[k], v) // NaN propagates, also past an infinity
			default:
				od[k] = matrix.BinMax.Apply(od[k], v)
			}
		})
		if r.kind == cplan.CellNoAgg && nnz {
			out = out.ToSparse()
		}
		outs, scales = append(outs, out), append(scales, scale)
	}
	return outs, scales, nnz
}

func checkOuts(t *testing.T, tag string, got, want, scales []*matrix.Matrix) {
	t.Helper()
	for q := range want {
		if got[q].IsSparse() != want[q].IsSparse() || got[q].Rows != want[q].Rows || got[q].Cols != want[q].Cols {
			t.Fatalf("%s root %d: output is %dx%d sparse=%v, oracle %dx%d sparse=%v", tag, q,
				got[q].Rows, got[q].Cols, got[q].IsSparse(), want[q].Rows, want[q].Cols, want[q].IsSparse())
		}
		gd, wd, sd := got[q].ToDense().Dense(), want[q].ToDense().Dense(), scales[q].Dense()
		for i := range wd {
			if !sameCell(gd[i], wd[i], math.Max(math.Abs(wd[i]), sd[i])) {
				t.Fatalf("%s root %d cell %d: program %v, oracle %v", tag, q, i, gd[i], wd[i])
			}
		}
	}
}

// checkBindings runs the plan over one set of inputs with 1 and 3 workers
// and compares outputs, output form and the binding taken with the oracle.
func checkBindings(t *testing.T, tag string, op *cplan.Operator, roots []oracleRoot, in *tierInput) (want, scales []*matrix.Matrix) {
	t.Helper()
	want, scales, nnz := oracle(roots, in, nil)
	// A dense side of any shape is viewed; what is written are the tile of
	// a sparse main a root reads and the rows of a sparse side.
	wantBind := BindView
	if in.main.IsSparse() {
		wantBind = BindNnz // no root reads main: the tiles are only counted out
	}
	for _, r := range roots {
		if flat, main := leaves(r.body); !nnz && (main && in.main.IsSparse() || flat && in.sparseSide) {
			wantBind = BindFill
		}
	}
	for _, workers := range []int{1, 3} {
		got, bind := execRoots(matrix.Ctx{Par: tierPools[workers]}, op, in.main, in.sides, nil)
		if bind != wantBind {
			t.Fatalf("%s: ran under %s, want %s", tag, bind, wantBind)
		}
		checkOuts(t, fmt.Sprintf("%s (workers %d, %s)", tag, workers, bind), got, want, scales)
		if nnz {
			for q, r := range roots {
				if r.kind == cplan.CellNoAgg && !samePattern(got[q].Sparse(), in.main.Sparse()) {
					t.Fatalf("%s root %d: output does not keep the main input's CSR pattern", tag, q)
				}
			}
		}
	}
	return want, scales
}

var tierPools = map[int]*par.Pool{1: par.NewPool(1), 3: par.NewPool(3)}

func samePattern(a, b *matrix.CSR) bool {
	if a == nil || len(a.RowPtr) != len(b.RowPtr) || len(a.ColIdx) != len(b.ColIdx) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] {
			return false
		}
	}
	return true
}

func TestCellBindingsMatchOracle(t *testing.T) {
	kinds := []cplan.CellType{cplan.CellNoAgg, cplan.CellRowAgg, cplan.CellColAgg, cplan.CellFullAgg}
	for name, body := range tierBodies() {
		for _, kind := range kinds {
			for _, agg := range tierAggs {
				if kind == cplan.CellNoAgg && agg != matrix.AggSum {
					continue
				}
				op := cplan.Compile(&cplan.Plan{Type: cplan.TemplateCell, Cell: kind, AggOp: agg, Root: body,
					NumSides: 4, SparseSafe: cplan.ProbeSparseSafe(body)}, "TMPC")
				for _, sh := range tierShapes {
					for _, in := range tierInputs(sh[0], sh[1], int64(sh[0]*31+sh[1])) {
						tag := fmt.Sprintf("Cell %s %s(%s) %dx%d %s", kind, agg, name, sh[0], sh[1], in.name)
						checkBindings(t, tag, op, []oracleRoot{{kind, agg, body}}, in)
					}
				}
			}
		}
	}
}

// TestCellBindingPinned: dense operators the skeleton must run on views, and
// the bindings the benchmark's sparse and broadcast operators take.
func TestCellBindingPinned(t *testing.T) {
	bodies := tierBodies()
	ins := tierInputs(40, 100, 5)
	for _, c := range []struct {
		name string
		kind cplan.CellType
		agg  matrix.AggOp
		body string
		in   *tierInput
		want Binding
	}{
		{"rowSums(X*Y*Z)", cplan.CellRowAgg, matrix.AggSum, "x*y*y", ins[0], BindView},
		{"colSums(exp(X)*s)", cplan.CellColAgg, matrix.AggSum, "exp(x)*s", ins[0], BindView},
		{"sum(X^2)", cplan.CellFullAgg, matrix.AggSum, "x^2", ins[0], BindView},
		{"sumsq(X)", cplan.CellFullAgg, matrix.AggSumSq, "x", ins[0], BindView},
		{"sum(X*Y*Z), sparse X", cplan.CellFullAgg, matrix.AggSum, "x*y*y", ins[2], BindNnz},
		{"max(X*Y*Z), sparse X", cplan.CellFullAgg, matrix.AggMax, "x*y*y", ins[2], BindFill},
		{"X/c-r", cplan.CellNoAgg, matrix.AggSum, "x/col-row", ins[0], BindView}, // no register is filled for a dense column or row side
		{"X*Y, sparse Y", cplan.CellNoAgg, matrix.AggSum, "col*y", ins[5], BindFill},
	} {
		body := bodies[c.body]
		p := &cplan.Plan{Type: cplan.TemplateCell, Cell: c.kind, AggOp: c.agg, Root: body, NumSides: 4,
			SparseSafe: cplan.ProbeSparseSafe(body)}
		if _, bind := execRoots(matrix.Ctx{}, cplan.Compile(p, "TMPP"), c.in.main, c.in.sides, nil); bind != c.want {
			t.Errorf("%s on %s inputs ran under %s, want %s", c.name, c.in.name, bind, c.want)
		}
	}
}

func TestMAggBindingsMatchOracle(t *testing.T) {
	bodies := tierBodies()
	groups := [][]string{
		{"x*y*y", "x*x"},         // sum(X*Y), sum(X*Z) shape
		{"x", "exp(x)*s", "x^2"}, // mixed bodies
		{"x*3+1", "x*col"},       // one root fills a register
		{"gen0", "gen1", "gen2"},
	}
	for _, g := range groups {
		for a := range tierAggs {
			p := &cplan.Plan{Type: cplan.TemplateMAgg, NumSides: 4}
			var roots []oracleRoot
			for q, name := range g {
				agg := tierAggs[(a+q)%len(tierAggs)]
				p.Roots, p.AggOps = append(p.Roots, bodies[name]), append(p.AggOps, agg)
				roots = append(roots, oracleRoot{cplan.CellFullAgg, agg, bodies[name]})
			}
			p.SparseSafe = cplan.ProbeSparseSafe(p.Roots...)
			op := cplan.Compile(p, "TMPM")
			for _, sh := range tierShapes {
				for _, in := range tierInputs(sh[0], sh[1], int64(sh[0]*17+sh[1])) {
					tag := fmt.Sprintf("MAgg %v %v %dx%d %s", g, p.AggOps, sh[0], sh[1], in.name)
					want, scales := checkBindings(t, tag, op, roots, in)
					// The packed 1×k row of the MAgg entry point.
					got := ExecMAgg(op, in.main, in.sides)
					for q := range want {
						if w := want[q].Scalar(); !sameCell(got.Dense()[q], w, math.Max(math.Abs(w), scales[q].Scalar())) {
							t.Fatalf("%s: packed output %d = %v, want %v", tag, q, got.Dense()[q], w)
						}
					}
				}
			}
		}
	}
}

func TestHorizontalBindingsMatchOracle(t *testing.T) {
	bodies := tierBodies()
	const (
		no, row, col, full = cplan.CellNoAgg, cplan.CellRowAgg, cplan.CellColAgg, cplan.CellFullAgg
	)
	type root struct {
		kind cplan.CellType
		agg  matrix.AggOp
		body string
	}
	sum, sumsq, mn, mx := matrix.AggSum, matrix.AggSumSq, matrix.AggMin, matrix.AggMax
	groups := [][]root{
		{{col, sum, "x"}, {full, sum, "x^2"}, {no, sum, "x*3+1"}}, // the flagship sibling group
		{{col, sum, "x*3+1"}},
		{{col, sum, "x*3+1"}, {no, sum, "0-x"}},
		{{col, sum, "x"}, {no, sum, "x*3+1"}, {no, sum, "0-x"}},
		{{no, sum, "x*3+1"}},
		{{no, sum, "x*3+1"}, {no, sum, "0-x"}},
		{{full, sum, "x*x"}},
		{{row, sum, "x*3+1"}, {full, sumsq, "x"}, {no, sum, "0-x"}},
		{{col, sum, "x"}, {full, sum, "exp(x)*s"}},                // a non-affine root
		{{col, mn, "x"}, {full, mx, "x*y*y"}, {row, mn, "x*3+1"}}, // min/max see every cell
		{{col, sumsq, "(x*3+1)/y"}, {row, sumsq, "log(x)"}, {no, sum, "y"}},
		{{row, sum, "x*y*y"}, {col, mx, "x+row"}, {full, sum, "gen3"}}, // one root fills a register
		{{col, sum, "gen4"}, {row, mx, "gen5"}, {full, mn, "gen6"}, {no, sum, "gen7"}},
		{{col, sum, "x*y*y"}, {row, sumsq, "x"}, {no, sum, "x*col"}, {full, sum, "x*x"}}, // sparse-safe throughout
	}
	for gi, g := range groups {
		p := &cplan.Plan{Type: cplan.TemplateHorizontal, NumSides: 4}
		var roots []oracleRoot
		for _, r := range g {
			p.Roots = append(p.Roots, bodies[r.body])
			p.HKinds = append(p.HKinds, r.kind)
			p.AggOps = append(p.AggOps, r.agg)
			roots = append(roots, oracleRoot{r.kind, r.agg, bodies[r.body]})
		}
		p.SparseSafe = cplan.ProbeSparseSafe(p.Roots...)
		op := cplan.Compile(p, "TMPH")
		for _, sh := range tierShapes {
			for _, in := range tierInputs(sh[0], sh[1], int64(sh[0]*13+sh[1])) {
				checkBindings(t, fmt.Sprintf("Horizontal group %d %dx%d %s", gi, sh[0], sh[1], in.name), op, roots, in)
			}
		}
	}
}

// TestOuterBindingsMatchOracle: the four outputs of the Outer template over a
// sparse and a dense driver, sparse-safe or not, with and without a side
// read cell by cell (dense and sparse) and a row or column side, against
// the oracle with U_i·V_j as the dot leaf.
func TestOuterBindingsMatchOracle(t *testing.T) {
	const m, n, rank = 37, 29, 5
	u, v := matrix.Rand(m, rank, 1, 0.1, 1, 71), matrix.Rand(n, rank, 1, 0.1, 1, 72)
	dot := func(i, j int) float64 {
		var s float64
		for k := 0; k < rank; k++ {
			s += u.At(i, k) * v.At(j, k)
		}
		return s
	}
	x, d := cplan.Main(0), cplan.Dot()
	logd := cplan.Unary(matrix.UnLog, tBin(matrix.BinAdd, d, cplan.Lit(1e-15)))
	bodies := map[string]*cplan.CNode{
		"x*log(dot)":   tBin(matrix.BinMul, x, logd), // sparse-safe
		"(x!=0)*dot":   tBin(matrix.BinMul, tBin(matrix.BinNeq, x, cplan.Lit(0)), d),
		"x-dot":        tBin(matrix.BinSub, x, d), // not sparse-safe
		"x*dot*y":      tBin(matrix.BinMul, tBin(matrix.BinMul, x, d), tY),
		"x*dot*col":    tBin(matrix.BinMul, tBin(matrix.BinMul, x, d), tCol),
		"dot+y*row-x":  tBin(matrix.BinSub, tBin(matrix.BinAdd, d, tBin(matrix.BinMul, tY, tRow)), x),
		"x*(dot+dot2)": tBin(matrix.BinMul, x, tBin(matrix.BinAdd, d, cplan.Dot())),
	}
	sides := func(sparseY bool) []*matrix.Matrix {
		y := matrix.Rand(m, n, 1, -1, 2, 73)
		if sparseY {
			y = matrix.Rand(m, n, 0.4, -1, 2, 73).ToSparse()
		}
		return []*matrix.Matrix{y, matrix.NewScalar(1.5), matrix.Rand(m, 1, 1, -1, 2, 74), matrix.Rand(1, n, 1, -1, 2, 75)}
	}
	drivers := map[string]*matrix.Matrix{
		"sparse": matrix.Rand(m, n, 0.15, 1, 2, 76).ToSparse(),
		"dense":  matrix.Rand(m, n, 1, 1, 2, 77),
	}
	outs := []cplan.OuterType{cplan.OuterRightMM, cplan.OuterLeftMM, cplan.OuterAgg, cplan.OuterNoAgg}
	for name, body := range bodies {
		for dn, xm := range drivers {
			for _, sparseY := range []bool{false, true} {
				sd := sides(sparseY)
				// The oracle yields W = f(X, UV') as a NoAgg root; the
				// products and the aggregate follow from it.
				wm, _, nnz := oracle([]oracleRoot{{cplan.CellNoAgg, matrix.AggSum, body}}, &tierInput{main: xm, sides: sd}, dot)
				w := wm[0]
				for _, out := range outs {
					tag := fmt.Sprintf("Outer %s %s, %s driver, sparse side %v", out, name, dn, sparseY)
					p := &cplan.Plan{Type: cplan.TemplateOuter, Out: out, Root: body, NumSides: 4,
						SparseSafe: cplan.ProbeSparseSafe(body)}
					var want *matrix.Matrix
					switch out {
					case cplan.OuterRightMM:
						want = matrix.MatMult(w, v)
					case cplan.OuterLeftMM:
						want = matrix.MatMult(matrix.Transpose(w), u)
					case cplan.OuterAgg:
						want = matrix.NewScalar(matrix.Sum(w))
					default:
						want = w
					}
					wantBind := BindFill
					if nnz {
						wantBind = BindNnz
					}
					op := cplan.Compile(p, "TMPO")
					for _, workers := range []int{1, 3} {
						got, bind := execOuter(matrix.Ctx{Par: par.NewPool(workers)}, op, xm, u, v, sd, nil)
						if bind != wantBind {
							t.Fatalf("%s: ran under %s, want %s", tag, bind, wantBind)
						}
						if out == cplan.OuterNoAgg && (got.IsSparse() != nnz || nnz && !samePattern(got.Sparse(), xm.Sparse())) {
							t.Fatalf("%s: output form differs (sparse %v, want %v)", tag, got.IsSparse(), nnz)
						}
						if got.Rows != want.Rows || got.Cols != want.Cols || !got.EqualsApprox(want, 1e-9) {
							t.Fatalf("%s (workers %d): program and oracle disagree", tag, workers)
						}
					}
				}
			}
		}
	}
}

// dictCases are compressed matrices made of one kind of column group each,
// plus the mix compression picks for a table with one incompressible column.
func dictCases(t *testing.T) map[string]*matrix.Matrix {
	t.Helper()
	const rows = 3000
	ddc := claMatrix(rows, 4, 7, 1, 81)
	rle := matrix.NewDense(rows, 2)
	for i := 0; i < rows; i++ {
		rle.Dense()[2*i], rle.Dense()[2*i+1] = float64(i/500), float64(i/750)-1
	}
	ole := claMatrix(rows, 3, 9, 0.1, 82)
	uc := matrix.Rand(rows, 2, 1, -1, 1, 83)
	mixed := matrix.CBind(matrix.CBind(ddc, uc), ole)
	cases := map[string]*matrix.Matrix{"DDC": ddc, "RLE": rle, "OLE": ole, "UC": uc, "mixed": mixed}
	for name, m := range cases {
		opts := compress.DefaultOptions()
		if name == "UC" || name == "mixed" {
			opts.MaxDistinct = 64 // the random columns overflow the dictionary
		}
		cm := compress.Compress(m, opts)
		compress.Attach(m, cm)
		for _, g := range cm.Groups {
			if kind := fmt.Sprintf("*compress.%sGroup", name); name != "mixed" && fmt.Sprintf("%T", g) != kind {
				t.Fatalf("%s case compressed to a %T", name, g)
			}
		}
	}
	return cases
}

// TestDictBindingMatchesDecompressed: every group encoding × the kinds the
// dictionary binding serves, against the same operator over the decompressed
// matrix; and each group's dictionary is run through the body once per
// invocation and root, whatever the number of rows.
func TestDictBindingMatchesDecompressed(t *testing.T) {
	x := cplan.Main(0)
	body := tBin(matrix.BinAdd, tBin(matrix.BinMul, tBin(matrix.BinPow, x, cplan.Lit(2)), tS), cplan.Lit(1)) // not sparse-safe
	sides := []*matrix.Matrix{matrix.NewScalar(0), matrix.NewScalar(0.5)}
	plans := map[string]*cplan.Plan{
		"NoAgg":   {Type: cplan.TemplateCell, Cell: cplan.CellNoAgg, Root: body, NumSides: 2},
		"ColAgg":  {Type: cplan.TemplateCell, Cell: cplan.CellColAgg, AggOp: matrix.AggSum, Root: body, NumSides: 2},
		"ColMax":  {Type: cplan.TemplateCell, Cell: cplan.CellColAgg, AggOp: matrix.AggMax, Root: body, NumSides: 2},
		"FullAgg": {Type: cplan.TemplateCell, Cell: cplan.CellFullAgg, AggOp: matrix.AggSum, Root: body, NumSides: 2},
		"SumSq":   {Type: cplan.TemplateCell, Cell: cplan.CellFullAgg, AggOp: matrix.AggSumSq, Root: x},
		"MAgg": {Type: cplan.TemplateMAgg, Roots: []*cplan.CNode{body, x, tBin(matrix.BinMul, x, x)},
			AggOps: []matrix.AggOp{matrix.AggSum, matrix.AggMin, matrix.AggSum}, NumSides: 2},
	}
	defer func() { dictSpan = nil }()
	for dn, m := range dictCases(t) {
		cm := compress.Of(m)
		dec := cm.Decompress()
		for pn, p := range plans {
			op := cplan.Compile(p, "TMPD")
			for _, workers := range []int{1, 3} {
				ec := matrix.Ctx{Par: par.NewPool(workers)}
				evals := map[int]int{}
				dictSpan = func(g, cells int) { evals[g] += cells }
				got, done := execCompressed(ec, op, cm, sides, nil)
				if !done {
					t.Fatalf("%s %s: not run over the dictionaries", dn, pn)
				}
				outs, _ := execRoots(ec, op, dec, sides, nil)
				want := outs[0]
				if p.Type == cplan.TemplateMAgg {
					want = packMAgg(ec, outs)
				}
				if got.Rows != want.Rows || got.Cols != want.Cols || !got.EqualsApprox(want, 1e-9) {
					t.Fatalf("%s %s (workers %d): dictionary binding and dense skeleton disagree", dn, pn, workers)
				}
				for gi, g := range cm.Groups {
					tuples := g.NumDistinct()
					if tuples == 0 {
						tuples = cm.Rows // uncompressed: one tuple per row
					}
					if limit := tuples * len(g.Cols()) * len(op.Progs); evals[gi] == 0 || evals[gi] > limit {
						t.Fatalf("%s %s group %d: body run over %d cells, want at most %d (%d tuples × %d columns × %d roots)",
							dn, pn, gi, evals[gi], limit, tuples, len(g.Cols()), len(op.Progs))
					}
				}
			}
		}
		compress.Drop(m)
	}
}
