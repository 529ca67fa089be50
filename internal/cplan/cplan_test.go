package cplan

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sysml/internal/matrix"
)

func TestPlanHashStability(t *testing.T) {
	mk := func() *Plan {
		return &Plan{
			Type: TemplateCell, Cell: CellFullAgg, AggOp: matrix.AggSum,
			Root: Binary(matrix.BinMul, Main(0), Side(0, AccessCell, 0)),
		}
	}
	if mk().Hash() != mk().Hash() {
		t.Fatal("identical plans must hash equal")
	}
	other := mk()
	other.Root = Binary(matrix.BinAdd, Main(0), Side(0, AccessCell, 0))
	if mk().Hash() == other.Hash() {
		t.Fatal("different plans must hash differently")
	}
	// Template metadata participates in the hash.
	noAgg := mk()
	noAgg.Cell = CellNoAgg
	if mk().Hash() == noAgg.Hash() {
		t.Fatal("cell type must affect the hash")
	}
}

func TestNumNodes(t *testing.T) {
	p := &Plan{Type: TemplateCell, Root: Binary(matrix.BinMul,
		Unary(matrix.UnExp, Main(0)), Lit(2))}
	if got := p.NumNodes(); got != 4 {
		t.Fatalf("NumNodes = %d, want 4", got)
	}
}

func TestRenderContainsTemplateMarkers(t *testing.T) {
	cell := &Plan{Type: TemplateCell, Cell: CellFullAgg, AggOp: matrix.AggSum,
		Root: Binary(matrix.BinMul, Main(0), Side(0, AccessCell, 0)), SparseSafe: true}
	src := Render(cell, "TMP42")
	for _, want := range []string{"SpoofCellwise", "FULL_AGG", "TMP42_genexec", "getValue(b[0]"} {
		if !strings.Contains(src, want) {
			t.Fatalf("cell source missing %q:\n%s", want, src)
		}
	}
	outer := &Plan{Type: TemplateOuter, Out: OuterRightMM,
		Root: Binary(matrix.BinMul, Main(0), Dot()), SparseSafe: true}
	src = Render(outer, "TMP4")
	if !strings.Contains(src, "SpoofOuterProduct") || !strings.Contains(src, "dotProduct(u, v") {
		t.Fatalf("outer source missing markers:\n%s", src)
	}
	row := &Plan{Type: TemplateRow, Row: RowColAggT, MainWidth: 10,
		Root: Agg(matrix.AggSum, Binary(matrix.BinMul, Main(10), Side(0, AccessRow, 10)))}
	src = Render(row, "TMP25")
	if !strings.Contains(src, "SpoofRowwise") || !strings.Contains(src, "genexecDense") {
		t.Fatalf("row source missing markers:\n%s", src)
	}
	magg := &Plan{Type: TemplateMAgg,
		Roots:  []*CNode{Main(0), Unary(matrix.UnAbs, Main(0))},
		AggOps: []matrix.AggOp{matrix.AggSum, matrix.AggSum}}
	src = Render(magg, "TMP7")
	if !strings.Contains(src, "SpoofMultiAggregate") || !strings.Contains(src, "genexec1") {
		t.Fatalf("magg source missing markers:\n%s", src)
	}
}

func TestCompileSlowRejectsNothingValid(t *testing.T) {
	p := &Plan{Type: TemplateRow, Row: RowFullAgg, MainWidth: 8,
		Root: Agg(matrix.AggSum, Binary(matrix.BinDiv, Main(8), Side(0, AccessCol, 0)))}
	if _, err := CompileSlow(p, "TMP9"); err != nil {
		t.Fatalf("valid plan failed the javac-analog path: %v", err)
	}
}

func TestRowProgramCompilation(t *testing.T) {
	// Shared X_i %*% B subexpression (one CNode) compiles to one RMatMul.
	mm := MatMultNode(Main(10), 0, 3)
	root := Binary(matrix.BinSub, mm,
		Binary(matrix.BinMul, Side(1, AccessCell, 3), Agg(matrix.AggSum, mm)))
	p := &Plan{Type: TemplateRow, Row: RowColAggT, Root: root, MainWidth: 10}
	prog := compileRow(p)
	if prog.MainWidth != 10 || !prog.ResultVec {
		t.Fatalf("program meta wrong: %+v", prog)
	}
	// The shared MatMultNode must compile once (CSE via memoization).
	nmm := 0
	for _, in := range prog.Instrs {
		if in.Op == RMatMul {
			nmm++
		}
	}
	if nmm != 1 {
		t.Fatalf("expected 1 RMatMul after CSE, got %d", nmm)
	}
}

func TestMainSparseCapable(t *testing.T) {
	// dot(main, v) is sparse-capable.
	dot := Agg(matrix.AggSum, Binary(matrix.BinMul, Main(10), Side(0, AccessRow, 10)))
	p := compileRow(&Plan{Type: TemplateRow, Row: RowRowAgg, Root: dot, MainWidth: 10})
	if !p.MainSparseCapable() {
		t.Fatal("dot(main, side) must be sparse-capable")
	}
	// main * 2 element-wise is not (result materializes the dense row).
	scale := Binary(matrix.BinMul, Main(10), Lit(2))
	p2 := compileRow(&Plan{Type: TemplateRow, Row: RowNoAgg, Root: scale, MainWidth: 10})
	if p2.MainSparseCapable() {
		t.Fatal("element-wise main op must not be sparse-capable")
	}
	// rowSums(main) is sparse-capable; rowMaxs(main) is not.
	sums := Agg(matrix.AggSum, Main(10))
	p3 := compileRow(&Plan{Type: TemplateRow, Row: RowRowAgg, Root: sums, MainWidth: 10})
	if !p3.MainSparseCapable() {
		t.Fatal("rowSums must be sparse-capable")
	}
	maxs := Agg(matrix.AggMax, Main(10))
	p4 := compileRow(&Plan{Type: TemplateRow, Row: RowRowAgg, Root: maxs, MainWidth: 10})
	if p4.MainSparseCapable() {
		t.Fatal("rowMaxs must not be sparse-capable (implicit zeros)")
	}
}

// TestCellProgram: one cell program under every way its registers load — a
// dense main-shaped side is a view (of wider rows too: a stride), a column
// side a scalar per tile row, a row side one row for all, a sparse main a
// densified tile — against the tree walker.
func TestCellProgram(t *testing.T) {
	// (main * side + 3), every leaf a view of its input.
	root := Binary(matrix.BinAdd,
		Binary(matrix.BinMul, Main(0), Side(0, AccessCell, 0)), Lit(3))
	prog := CompileCell(root, CellNoAgg, matrix.AggSum)
	main := matrix.Rand(4, 300, 1, -1, 1, 1)
	side := matrix.Rand(4, 300, 1, -1, 1, 2)
	check := func(tag string, p *Program, n *CNode, main *matrix.Matrix, sides []*matrix.Matrix, filled bool) {
		t.Helper()
		res, b := execRows(p, main, sides)
		if b != filled {
			t.Fatalf("%s: some register filled = %v, want %v", tag, b, filled)
		}
		ctx, md := NewCtx(sides), main.ToDense().Dense()
		for k, a := range md {
			if want := InterpretCell(n, ctx, a, 0, k/main.Cols, k%main.Cols); res[k] != want {
				t.Fatalf("%s: cell[%d] = %v, want %v", tag, k, res[k], want)
			}
		}
	}
	check("view", prog, root, main, []*matrix.Matrix{side}, false)
	// The same program over a side one column too wide views it by stride.
	wide := matrix.Rand(4, 301, 1, -1, 1, 3)
	check("wide side", prog, root, main, []*matrix.Matrix{wide}, false)
	check("sparse main", prog, root, main.ToSparse(), []*matrix.Matrix{side}, true)
	check("sparse side", prog, root, main, []*matrix.Matrix{matrix.Rand(4, 300, 0.3, -1, 1, 2).ToSparse()}, true)
	// Column, row and main-shaped sides in one expression: a scalar register
	// per row, a uniform register and a view — nothing is filled.
	bc := Binary(matrix.BinMul, Binary(matrix.BinSub, Main(0), Side(0, AccessCol, 0)),
		Binary(matrix.BinAdd, Side(1, AccessRow, 0), Side(2, AccessCell, 0)))
	bprog := CompileCell(bc, CellNoAgg, matrix.AggSum)
	for _, in := range bprog.Instrs {
		if in.Op == RLoadSideVal && (in.Uniform || bprog.ScalUniform[in.Dst]) ||
			in.Op == RLoadSideRow && in.RowZero != bprog.VecUniform[in.Dst] {
			t.Fatalf("a column side must be a scalar per row, a row side a uniform vector: %+v", in)
		}
	}
	bsides := []*matrix.Matrix{matrix.Rand(4, 1, 1, -1, 1, 4), matrix.Rand(1, 300, 1, -1, 1, 5), side}
	check("broadcast", bprog, bc, main, bsides, false)
	check("broadcast, sparse main", bprog, bc, main.ToSparse(), bsides, true)
	check("broadcast, sparse vectors", bprog, bc, main,
		[]*matrix.Matrix{bsides[0].ToSparse(), bsides[1].ToSparse(), side}, false)
	// Rows wider than a step run a column range at a time.
	for _, sh := range [][2]int{{1, 100000}, {8, 20000}} {
		wm := matrix.Rand(sh[0], sh[1], 1, -1, 1, 6)
		ws := []*matrix.Matrix{matrix.Rand(sh[0], 1, 1, -1, 1, 7), matrix.Rand(1, sh[1], 1, -1, 1, 8), matrix.Rand(sh[0], sh[1], 1, -1, 1, 9)}
		if _, cols := bprog.TileSize(sh[1], MainView); cols >= sh[1] {
			t.Fatalf("%dx%d: the step takes whole rows", sh[0], sh[1])
		}
		check("wide main", bprog, bc, wm, ws, false)
		check("wide sparse main", bprog, bc, matrix.Rand(sh[0], sh[1], 0.2, -1, 1, 6).ToSparse(), ws, true)
	}
}

// TestUniformInstructionsRunOncePerBuffer: the sub-expression of a row side
// and scalars is evaluated once for all tiles a worker's buffer runs, and
// once per column range where the rows are wider than a step.
func TestUniformInstructionsRunOncePerBuffer(t *testing.T) {
	defer func() { uniformRan = nil }()
	body := Binary(matrix.BinMul, Main(0),
		Unary(matrix.UnExp, Binary(matrix.BinMul, Side(0, AccessRow, 0), Side(1, AccessScalar, 0))))
	prog := CompileCell(body, CellNoAgg, matrix.AggSum)
	uniform := 0
	for _, in := range prog.Instrs {
		if in.Uniform {
			uniform++
		}
	}
	if uniform != 4 { // the row side, the scalar, their product, exp
		t.Fatalf("want 4 uniform instructions, got %d: %+v", uniform, prog.Instrs)
	}
	for _, sh := range [][3]int{{5000, 7, 1}, {3, 40000, 0}} {
		rows, cols := sh[0], sh[1]
		_, step := prog.TileSize(cols, MainView)
		ranges := (cols + step - 1) / step
		if sh[2] == 1 && ranges != 1 || sh[2] == 0 && ranges < 2 {
			t.Fatalf("%dx%d runs %d column ranges", rows, cols, ranges)
		}
		ran := 0
		uniformRan = func(*RowInstr) { ran++ }
		main := matrix.Rand(rows, cols, 1, -1, 1, 1)
		sides := []*matrix.Matrix{matrix.Rand(1, cols, 1, -1, 1, 2), matrix.NewScalar(0.5)}
		res, _ := execRows(prog, main, sides)
		if ran != uniform*ranges {
			t.Fatalf("%dx%d: %d uniform evaluations over all tiles, want %d for each of %d column ranges", rows, cols, ran, uniform, ranges)
		}
		ctx := NewCtx(sides)
		for k, a := range main.Dense() {
			if want := InterpretCell(body, ctx, a, 0, k/cols, k%cols); res[k] != want {
				t.Fatalf("%dx%d: cell[%d] = %v, want %v", rows, cols, k, res[k], want)
			}
		}
	}
}

// TestLoweringPeepholes: both execution forms share one lowering, so the
// sum(a*b) -> dot and x^2 -> x*x rewrites apply to Row and cell bodies alike.
func TestLoweringPeepholes(t *testing.T) {
	count := func(instrs []RowInstr, op RowOpKind, bin matrix.BinOp) (n int) {
		for _, in := range instrs {
			if in.Op == op && (op != RBinVV && op != RBinVS || in.BinOp == bin) {
				n++
			}
		}
		return n
	}
	sq := func(w int) *CNode { return Binary(matrix.BinPow, Main(w), Lit(2)) }

	row := compileRow(&Plan{Type: TemplateRow, Row: RowNoAgg, MainWidth: 8, Root: sq(8)})
	if count(row.Instrs, RBinVV, matrix.BinMul) != 1 || count(row.Instrs, RBinVS, matrix.BinPow) != 0 {
		t.Fatalf("row x^2 must lower to x*x: %+v", row.Instrs)
	}
	rowDot := compileRow(&Plan{Type: TemplateRow, Row: RowRowAgg, MainWidth: 8, Root: Agg(matrix.AggSum, sq(8))})
	if count(rowDot.Instrs, RDot, 0) != 1 || len(rowDot.Instrs) != 1 {
		t.Fatalf("row sum(x^2) must lower to one dot: %+v", rowDot.Instrs)
	}

	cell := CompileCell(sq(0), CellNoAgg, matrix.AggSum)
	if count(cell.Instrs, RBinVV, matrix.BinMul) != 1 || count(cell.Instrs, RBinVS, matrix.BinPow) != 0 {
		t.Fatalf("cell x^2 must lower to x*x: %+v", cell.Instrs)
	}
	xy := Binary(matrix.BinMul, Main(0), Side(0, AccessCell, 0))
	for _, kind := range []CellType{CellRowAgg, CellFullAgg} {
		p := CompileCell(xy, kind, matrix.AggSum)
		if p.DotReg < 0 || p.ResultReg != 0 || count(p.Instrs, RBinVV, matrix.BinMul) != 0 {
			t.Fatalf("%s sum(x*y) must fold the factors without the product: %+v", kind, p.Instrs)
		}
		if p = CompileCell(Main(0), kind, matrix.AggSumSq); p.DotReg != 0 || p.Agg != matrix.AggSum || len(p.Instrs) != 0 {
			t.Fatalf("%s sumsq(x) must fold x with itself: %+v", kind, p)
		}
	}
	// Other aggregates and kinds keep the product and reduce it.
	if p := CompileCell(xy, CellFullAgg, matrix.AggMax); p.DotReg >= 0 || count(p.Instrs, RBinVV, matrix.BinMul) != 1 {
		t.Fatalf("max(x*y) must reduce the product: %+v", p.Instrs)
	}
	if p := CompileCell(xy, CellColAgg, matrix.AggSum); p.DotReg >= 0 || count(p.Instrs, RBinVV, matrix.BinMul) != 1 {
		t.Fatalf("colSums(x*y) must fold the product: %+v", p.Instrs)
	}
	// A constant body yields its scalar once per cell and reduces that.
	if p := CompileCell(Lit(3), CellFullAgg, matrix.AggSum); p.DotReg >= 0 || !p.ResultVec || count(p.Instrs, RSplat, 0) != 1 {
		t.Fatalf("sum(3) must splat and reduce: %+v", p.Instrs)
	}
}

func TestSideViewCursor(t *testing.T) {
	m := matrix.Rand(5, 40, 0.2, -1, 1, 4)
	v := NewSideView(m)
	md := m.ToDense()
	// Monotone access within rows.
	for i := 0; i < 5; i++ {
		for j := 0; j < 40; j++ {
			if v.Value(i, j) != md.At(i, j) {
				t.Fatalf("cursor Value(%d,%d) mismatch", i, j)
			}
		}
	}
	// Non-monotone access restarts correctly.
	if v.Value(2, 30) != md.At(2, 30) || v.Value(2, 3) != md.At(2, 3) {
		t.Fatal("non-monotone access broken")
	}
}

func TestSparseSafetyRules(t *testing.T) {
	cases := []struct {
		name string
		node *CNode
		want bool
	}{
		{"main", Main(0), true},
		{"main*side", Binary(matrix.BinMul, Main(0), Side(0, AccessCell, 0)), true},
		{"main+side", Binary(matrix.BinAdd, Main(0), Side(0, AccessCell, 0)), false},
		{"main!=0", Binary(matrix.BinNeq, Main(0), Lit(0)), true},
		{"main/dot", Binary(matrix.BinDiv, Main(0), Dot()), true},
		{"dot/main", Binary(matrix.BinDiv, Dot(), Main(0)), false},
		{"abs(main)", Unary(matrix.UnAbs, Main(0)), true},
		{"exp(main)", Unary(matrix.UnExp, Main(0)), false},
		{"main*log(dot+eps)", Binary(matrix.BinMul, Main(0),
			Unary(matrix.UnLog, Binary(matrix.BinAdd, Dot(), Lit(1e-15)))), true},
		{"lit0", Lit(0), true},
		{"lit1", Lit(1), false},
	}
	for _, c := range cases {
		if got := ProbeSparseSafe(c.node); got != c.want {
			t.Errorf("%s: sparse-safe = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestInterpretedOuterDot(t *testing.T) {
	root := Binary(matrix.BinMul, Main(0), Dot())
	if got := InterpretCell(root, NewCtx(nil), 2, 3, 0, 0); got != 6 {
		t.Fatalf("interpreted dot = %v", got)
	}
	if p := CompileCell(root, CellNoAgg, matrix.AggSum); p.Instrs[0].Op != RLoadDot {
		t.Fatalf("the dot must lower to a leaf register: %+v", p.Instrs)
	}
}

// TestExecTileNarrowMatchesOracle runs generated Row programs whose
// intermediate has width 1..9 — a strided view of the main row, so that
// neither the flat nor the narrow tile kernels see the easy case alone —
// through every BinOp against a per-row or a uniform scalar (both operand
// orders), a row vector and a tile of side rows, and then through every
// AggOp, at heights 1, 7, one tile and one tile + 1 (a second tile of one
// row). The oracle evaluates op.Apply cell by cell and folds naively: the
// tile kernels are one IEEE operation per cell, so maps and min/max agree
// to the bit (a vector divided by a scalar is multiplied by its reciprocal),
// sums within the tolerance of a reordered sum.
func TestExecTileNarrowMatchesOracle(t *testing.T) {
	const mainW = 11
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 2}
	rng := rand.New(rand.NewSource(20))
	value := func() float64 {
		if rng.Intn(12) == 0 {
			return special[rng.Intn(len(special))]
		}
		return math.Round(rng.NormFloat64()*8) / 4
	}
	fill := func(rows, cols int) *matrix.Matrix {
		m := matrix.NewDense(rows, cols)
		for i := range m.Dense() {
			m.Dense()[i] = value()
		}
		return m
	}
	binOps := []matrix.BinOp{matrix.BinAdd, matrix.BinSub, matrix.BinMul, matrix.BinDiv, matrix.BinPow, matrix.BinMin, matrix.BinMax,
		matrix.BinEq, matrix.BinNeq, matrix.BinLt, matrix.BinLe, matrix.BinGt, matrix.BinGe, matrix.BinAnd, matrix.BinOr}
	aggOps := []matrix.AggOp{matrix.AggSum, matrix.AggMin, matrix.AggMax, matrix.AggMean, matrix.AggSumSq}
	same := func(g, w float64) bool {
		return math.Float64bits(g) == math.Float64bits(w) || (math.IsNaN(g) && math.IsNaN(w))
	}
	for w := 1; w <= 9; w++ {
		v := Idx(Main(mainW), 1, 1+w)
		// The second operand: 0 a scalar per row, 1 one scalar for all rows,
		// 2 a row vector, 3 a tile of side rows.
		operands := []*CNode{Side(0, AccessCol, 0), Side(1, AccessScalar, 0), Side(2, AccessRow, w), Side(3, AccessCell, w)}
		for _, op := range binOps {
			for kind, y := range operands {
				for _, left := range []bool{false, true} {
					body := Binary(op, v, y)
					if left {
						body = Binary(op, y, v)
					}
					prog := compileRow(&Plan{Type: TemplateRow, Row: RowNoAgg, Root: body, NumSides: 4, MainWidth: mainW})
					aggs := make([]*Program, len(aggOps))
					for i, agg := range aggOps {
						aggs[i] = compileRow(&Plan{Type: TemplateRow, Row: RowRowAgg, Root: Agg(agg, body), NumSides: 4, MainWidth: mainW})
					}
					tile, _ := prog.TileSize(mainW, MainView)
					for _, rows := range []int{1, 7, tile, tile + 1} {
						main := fill(rows, mainW)
						sides := []*matrix.Matrix{fill(rows, 1), fill(1, 1), fill(1, w), fill(rows, w)}
						want := make([]float64, rows*w)
						for i := range want {
							r, j := i/w, i%w
							x := main.Dense()[r*mainW+1+j]
							var s float64
							switch kind {
							case 0:
								s = sides[0].Dense()[r]
							case 1:
								s = sides[1].Dense()[0]
							case 2:
								s = sides[2].Dense()[j]
							case 3:
								s = sides[3].Dense()[i]
							}
							switch {
							case left:
								want[i] = op.Apply(s, x)
							case op == matrix.BinDiv && kind < 2:
								want[i] = x * (1 / s)
							default:
								want[i] = op.Apply(x, s)
							}
						}
						what := fmt.Sprintf("w=%d %v operand %d left=%v rows=%d", w, op, kind, left, rows)
						got, _ := execRows(prog, main, sides)
						for i, g := range got {
							if !same(g, want[i]) {
								t.Fatalf("%s: cell %d = %v, oracle %v", what, i, g, want[i])
							}
						}
						for a, agg := range aggOps {
							got, _ := execRows(aggs[a], main, sides)
							for r := 0; r < rows; r++ {
								row := want[r*w : (r+1)*w]
								acc, scale := 0.0, 0.0
								switch agg {
								case matrix.AggMin:
									acc = math.Inf(1)
								case matrix.AggMax:
									acc = math.Inf(-1)
								}
								for _, e := range row {
									switch agg {
									case matrix.AggSumSq:
										acc, scale = acc+e*e, scale+e*e
									case matrix.AggMin:
										acc = matrix.BinMin.Apply(acc, e)
									case matrix.AggMax:
										acc = matrix.BinMax.Apply(acc, e)
									default:
										acc, scale = acc+e, scale+math.Abs(e)
									}
								}
								if agg == matrix.AggMean {
									acc /= float64(w)
								}
								if g := got[r]; !same(g, acc) && !(math.Abs(g-acc) <= 1e-12*scale) {
									t.Fatalf("%s: %v of row %d = %v, oracle %v", what, agg, r, g, acc)
								}
							}
						}
					}
				}
			}
		}
	}
}

// execRows runs a program step by step over main, the way the tile pass does,
// and returns the result rows back to back, and whether a load wrote a
// register it could not view.
func execRows(p *Program, main *matrix.Matrix, sides []*matrix.Matrix) ([]float64, bool) {
	ctx := NewCtx(sides, p)
	bind := BindMain(false, []*Program{p}, main)[0]
	rows, cols := p.TileSize(main.Cols, bind)
	b := p.GetBuf(bind, main, rows, cols, func(n int) []float64 { return make([]float64, n) })
	defer p.PutBuf(b)
	oc := p.OutCols(main.Cols)
	out := make([]float64, main.Rows*oc)
	for c := 0; c < main.Cols; c += cols {
		for i := 0; i < main.Rows; i += rows {
			n := min(rows, main.Rows-i)
			b.Tile(i, n, c, min(cols, main.Cols-c))
			p.Exec(ctx, b, nil)
			res, off, stride, w := p.Result(b)
			for k := 0; k < n; k++ {
				copy(out[(i+k)*oc+c:][:w], res[off+k*stride:])
			}
		}
	}
	return out, b.Filled
}
