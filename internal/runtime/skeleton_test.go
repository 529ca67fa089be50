package runtime

import (
	"math"
	"testing"

	"sysml/internal/cplan"
	"sysml/internal/hop"
	"sysml/internal/matrix"
)

// Reference plans built by hand, mirroring the paper's example expressions.

func TestCellNoAggDense(t *testing.T) {
	// f(a, b0) = a*b0 + 2
	root := cplan.Binary(matrix.BinAdd,
		cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Side(0, cplan.AccessCell, 0)),
		cplan.Lit(2))
	p := &cplan.Plan{Type: cplan.TemplateCell, Cell: cplan.CellNoAgg, Root: root, NumSides: 1}
	op := cplan.Compile(p, "TMP1")
	x := matrix.Rand(30, 20, 1, -1, 1, 1)
	y := matrix.Rand(30, 20, 1, -1, 1, 2)
	got := ExecCellwise(op, x, []*matrix.Matrix{y})
	want := matrix.ScalarRight(matrix.BinAdd, matrix.Binary(matrix.BinMul, x, y), 2)
	if !got.EqualsApprox(want, 1e-12) {
		t.Fatal("cell no-agg mismatch")
	}
}

func TestCellFullAggSumXYZ(t *testing.T) {
	// sum(X*Y*Z): Fig. 1(a) pattern.
	root := cplan.Binary(matrix.BinMul,
		cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Side(0, cplan.AccessCell, 0)),
		cplan.Side(1, cplan.AccessCell, 0))
	sparseSafe := cplan.ProbeSparseSafe(root)
	if !sparseSafe {
		t.Fatal("X*Y*Z must probe sparse-safe")
	}
	p := &cplan.Plan{Type: cplan.TemplateCell, Cell: cplan.CellFullAgg,
		AggOp: matrix.AggSum, Root: root, SparseSafe: sparseSafe, NumSides: 2}
	op := cplan.Compile(p, "TMP2")
	for _, sp := range []float64{1, 0.1} {
		x := matrix.Rand(50, 40, sp, -1, 1, 3)
		y := matrix.Rand(50, 40, 1, -1, 1, 4)
		z := matrix.Rand(50, 40, 1, -1, 1, 5)
		got := ExecCellwise(op, x, []*matrix.Matrix{y, z}).Scalar()
		want := matrix.Sum(matrix.Binary(matrix.BinMul, matrix.Binary(matrix.BinMul, x, y), z))
		if math.Abs(got-want) > 1e-9*math.Abs(want)+1e-12 {
			t.Fatalf("sp=%v: got %v want %v", sp, got, want)
		}
	}
}

func TestCellRowColAgg(t *testing.T) {
	// rowSums(X^2) and colSums(X^2).
	root := cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Main(0))
	for _, tc := range []struct {
		cell cplan.CellType
		dir  matrix.AggDir
	}{
		{cplan.CellRowAgg, matrix.DirRow},
		{cplan.CellColAgg, matrix.DirCol},
	} {
		p := &cplan.Plan{Type: cplan.TemplateCell, Cell: tc.cell,
			AggOp: matrix.AggSum, Root: root, SparseSafe: true}
		op := cplan.Compile(p, "TMP3")
		for _, sp := range []float64{1, 0.15} {
			x := matrix.Rand(40, 30, sp, -2, 2, 6)
			got := ExecCellwise(op, x, nil)
			want := matrix.Agg(matrix.AggSum, tc.dir, matrix.Binary(matrix.BinMul, x, x))
			if !got.EqualsApprox(want, 1e-9) {
				t.Fatalf("cell %v sp=%v mismatch", tc.cell, sp)
			}
		}
	}
}

func TestCellSparseSafeKeepsPattern(t *testing.T) {
	// (X != 0) * 7 over a sparse X stays sparse.
	root := cplan.Binary(matrix.BinMul,
		cplan.Binary(matrix.BinNeq, cplan.Main(0), cplan.Lit(0)), cplan.Lit(7))
	p := &cplan.Plan{Type: cplan.TemplateCell, Cell: cplan.CellNoAgg,
		Root: root, SparseSafe: cplan.ProbeSparseSafe(root)}
	if !p.SparseSafe {
		t.Fatal("(X!=0)*7 must be sparse safe")
	}
	op := cplan.Compile(p, "TMP4")
	x := matrix.Rand(60, 60, 0.05, -1, 1, 7)
	got := ExecCellwise(op, x, nil)
	if !got.IsSparse() {
		t.Fatal("output should be sparse")
	}
	want := matrix.ScalarRight(matrix.BinMul, matrix.ScalarRight(matrix.BinNeq, x, 0), 7)
	if !got.EqualsApprox(want, 0) {
		t.Fatal("sparse-safe cell values mismatch")
	}
}

func TestCellSideAccessModes(t *testing.T) {
	// X * colvec + rowvec + scalarSide
	root := cplan.Binary(matrix.BinAdd,
		cplan.Binary(matrix.BinAdd,
			cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Side(0, cplan.AccessCol, 0)),
			cplan.Side(1, cplan.AccessRow, 0)),
		cplan.Side(2, cplan.AccessScalar, 0))
	p := &cplan.Plan{Type: cplan.TemplateCell, Cell: cplan.CellNoAgg, Root: root, NumSides: 3}
	op := cplan.Compile(p, "TMP5")
	x := matrix.Rand(20, 10, 1, -1, 1, 8)
	cv := matrix.Rand(20, 1, 1, -1, 1, 9)
	rv := matrix.Rand(1, 10, 1, -1, 1, 10)
	s := matrix.NewScalar(3)
	got := ExecCellwise(op, x, []*matrix.Matrix{cv, rv, s})
	want := matrix.ScalarRight(matrix.BinAdd,
		matrix.Binary(matrix.BinAdd, matrix.Binary(matrix.BinMul, x, cv), rv), 3)
	if !got.EqualsApprox(want, 1e-12) {
		t.Fatal("side access mismatch")
	}
	// Sparse side input exercises the stateful cursor.
	xs := matrix.Rand(20, 10, 1, -1, 1, 11)
	side := matrix.Rand(20, 10, 0.2, -1, 1, 12)
	root2 := cplan.Binary(matrix.BinAdd, cplan.Main(0), cplan.Side(0, cplan.AccessCell, 0))
	op2 := cplan.Compile(&cplan.Plan{Type: cplan.TemplateCell, Cell: cplan.CellNoAgg, Root: root2}, "TMP6")
	got2 := ExecCellwise(op2, xs, []*matrix.Matrix{side})
	want2 := matrix.Binary(matrix.BinAdd, xs, side)
	if !got2.EqualsApprox(want2, 1e-12) {
		t.Fatal("sparse side cursor mismatch")
	}
}

func TestMAggSharedInput(t *testing.T) {
	// Fig. 1(c): sum(X*Y), sum(X*Z) in one pass.
	r1 := cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Side(0, cplan.AccessCell, 0))
	r2 := cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Side(1, cplan.AccessCell, 0))
	p := &cplan.Plan{Type: cplan.TemplateMAgg,
		Roots:      []*cplan.CNode{r1, r2},
		AggOps:     []matrix.AggOp{matrix.AggSum, matrix.AggSum},
		SparseSafe: cplan.ProbeSparseSafe(r1, r2)}
	if !p.SparseSafe {
		t.Fatal("multi-agg should be sparse safe (X is driver)")
	}
	op := cplan.Compile(p, "TMP7")
	for _, sp := range []float64{1, 0.1} {
		x := matrix.Rand(50, 40, sp, -1, 1, 13)
		y := matrix.Rand(50, 40, 1, -1, 1, 14)
		z := matrix.Rand(50, 40, 1, -1, 1, 15)
		got := ExecMAgg(op, x, []*matrix.Matrix{y, z})
		if got.Rows != 1 || got.Cols != 2 {
			t.Fatalf("magg output shape %dx%d", got.Rows, got.Cols)
		}
		w1 := matrix.Sum(matrix.Binary(matrix.BinMul, x, y))
		w2 := matrix.Sum(matrix.Binary(matrix.BinMul, x, z))
		if math.Abs(got.At(0, 0)-w1) > 1e-9 || math.Abs(got.At(0, 1)-w2) > 1e-9 {
			t.Fatalf("magg sp=%v: got %v, want (%v, %v)", sp, got, w1, w2)
		}
	}
}

func TestRowTemplateMVChain(t *testing.T) {
	// Fig. 1(b): t(X) %*% (X %*% v) in a single pass.
	// Per row: q_i = dot(X_i, v); accumulate C += q_i * X_i.
	n := 25
	vSide := cplan.Side(0, cplan.AccessRow, n) // v read as a length-n vector
	q := cplan.Agg(matrix.AggSum, cplan.Binary(matrix.BinMul, cplan.Main(n), vSide))
	p := &cplan.Plan{Type: cplan.TemplateRow, Row: cplan.RowColAggT, Root: q, MainWidth: n}
	op := cplan.Compile(p, "TMP8")
	for _, sp := range []float64{1, 0.1} {
		x := matrix.Rand(200, n, sp, -1, 1, 16)
		v := matrix.Rand(n, 1, 1, -1, 1, 17)
		got := ExecRowwise(op, x, []*matrix.Matrix{v})
		want := matrix.MatMult(matrix.Transpose(x), matrix.MatMult(x, v))
		if got.Rows != n || got.Cols != 1 {
			t.Fatalf("row output shape %dx%d", got.Rows, got.Cols)
		}
		if !got.EqualsApprox(want, 1e-9) {
			t.Fatalf("sp=%v: mvchain mismatch", sp)
		}
	}
}

func TestRowTemplateMLogregCore(t *testing.T) {
	// Expression (2): Q = P * (X %*% B); H = t(X) %*% (Q - P * rowSums(Q)).
	n, k := 12, 3
	xb := cplan.MatMultNode(cplan.Main(n), 0, k) // X_i %*% B -> 1×k
	pRow := cplan.Side(1, cplan.AccessCell, k)   // P_i
	q := cplan.Binary(matrix.BinMul, pRow, xb)   // Q_i
	rs := cplan.Agg(matrix.AggSum, q)            // rowSums(Q)_i
	inner := cplan.Binary(matrix.BinSub, q, cplan.Binary(matrix.BinMul, pRow, rs))
	p := &cplan.Plan{Type: cplan.TemplateRow, Row: cplan.RowColAggT, Root: inner, MainWidth: n}
	op := cplan.Compile(p, "TMP25")
	for _, sp := range []float64{1, 0.15} {
		x := matrix.Rand(150, n, sp, -1, 1, 18)
		b := matrix.Rand(n, k, 1, -1, 1, 19)
		pm := matrix.Rand(150, k, 1, 0, 1, 20)
		got := ExecRowwise(op, x, []*matrix.Matrix{b, pm})
		qm := matrix.Binary(matrix.BinMul, pm, matrix.MatMult(x, b))
		want := matrix.MatMult(matrix.Transpose(x),
			matrix.Binary(matrix.BinSub, qm,
				matrix.Binary(matrix.BinMul, pm, matrix.Agg(matrix.AggSum, matrix.DirRow, qm))))
		if !got.EqualsApprox(want, 1e-9) {
			t.Fatalf("sp=%v: mlogreg core mismatch", sp)
		}
	}
}

func TestRowTemplateVariants(t *testing.T) {
	n := 10
	x := matrix.Rand(50, n, 1, -1, 1, 21)
	// NoAgg: X * 2 + 1 row-wise.
	body := cplan.Binary(matrix.BinAdd,
		cplan.Binary(matrix.BinMul, cplan.Main(n), cplan.Lit(2)), cplan.Lit(1))
	opNo := cplan.Compile(&cplan.Plan{Type: cplan.TemplateRow, Row: cplan.RowNoAgg, Root: body, MainWidth: n}, "T1")
	got := ExecRowwise(opNo, x, nil)
	want := matrix.ScalarRight(matrix.BinAdd, matrix.ScalarRight(matrix.BinMul, x, 2), 1)
	if !got.EqualsApprox(want, 1e-12) {
		t.Fatal("row no-agg mismatch")
	}
	// RowAgg: rowSums(X*X).
	ra := cplan.Agg(matrix.AggSum, cplan.Binary(matrix.BinMul, cplan.Main(n), cplan.Main(n)))
	opRA := cplan.Compile(&cplan.Plan{Type: cplan.TemplateRow, Row: cplan.RowRowAgg, Root: ra, MainWidth: n}, "T2")
	got = ExecRowwise(opRA, x, nil)
	want = matrix.Agg(matrix.AggSum, matrix.DirRow, matrix.Binary(matrix.BinMul, x, x))
	if !got.EqualsApprox(want, 1e-9) {
		t.Fatal("row row-agg mismatch")
	}
	// ColAgg: colSums(X*2).
	ca := cplan.Binary(matrix.BinMul, cplan.Main(n), cplan.Lit(2))
	opCA := cplan.Compile(&cplan.Plan{Type: cplan.TemplateRow, Row: cplan.RowColAgg, Root: ca, MainWidth: n}, "T3")
	got = ExecRowwise(opCA, x, nil)
	want = matrix.Agg(matrix.AggSum, matrix.DirCol, matrix.ScalarRight(matrix.BinMul, x, 2))
	if !got.EqualsApprox(want, 1e-9) {
		t.Fatal("row col-agg mismatch")
	}
	// FullAgg: sum(X/rowSums-like scalar chain) – here sum(rowSums(X)*3).
	fa := cplan.Binary(matrix.BinMul, cplan.Agg(matrix.AggSum, cplan.Main(n)), cplan.Lit(3))
	opFA := cplan.Compile(&cplan.Plan{Type: cplan.TemplateRow, Row: cplan.RowFullAgg, Root: fa, MainWidth: n}, "T4")
	got = ExecRowwise(opFA, x, nil)
	if math.Abs(got.Scalar()-3*matrix.Sum(x)) > 1e-9 {
		t.Fatal("row full-agg mismatch")
	}
	// Idx: rowSums(X[, 2:5]).
	ix := cplan.Agg(matrix.AggSum, cplan.Idx(cplan.Main(n), 2, 5))
	opIx := cplan.Compile(&cplan.Plan{Type: cplan.TemplateRow, Row: cplan.RowRowAgg, Root: ix, MainWidth: n}, "T5")
	got = ExecRowwise(opIx, x, nil)
	want = matrix.Agg(matrix.AggSum, matrix.DirRow, matrix.IndexRange(x, 0, 50, 2, 5))
	if !got.EqualsApprox(want, 1e-9) {
		t.Fatal("row idx mismatch")
	}
}

func TestOuterRightMM(t *testing.T) {
	// Expression (1) core: ((X != 0) * (U V')) V.
	rank := 8
	root := cplan.Binary(matrix.BinMul,
		cplan.Binary(matrix.BinNeq, cplan.Main(0), cplan.Lit(0)), cplan.Dot())
	p := &cplan.Plan{Type: cplan.TemplateOuter, Out: cplan.OuterRightMM,
		Root: root, SparseSafe: cplan.ProbeSparseSafe(root), OuterRank: rank}
	if !p.SparseSafe {
		t.Fatal("(X!=0)*dot must be sparse safe")
	}
	op := cplan.Compile(p, "TMP9")
	x := matrix.Rand(80, 60, 0.1, 1, 2, 22)
	u := matrix.Rand(80, rank, 1, -1, 1, 23)
	v := matrix.Rand(60, rank, 1, -1, 1, 24)
	got := ExecOuter(op, x, u, v, nil)
	mask := matrix.ScalarRight(matrix.BinNeq, x, 0)
	uvt := matrix.MatMult(u, matrix.Transpose(v))
	want := matrix.MatMult(matrix.Binary(matrix.BinMul, mask, uvt), v)
	if !got.EqualsApprox(want, 1e-9) {
		t.Fatal("outer right-mm mismatch")
	}
}

func TestOuterLeftMM(t *testing.T) {
	rank := 6
	root := cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Dot())
	p := &cplan.Plan{Type: cplan.TemplateOuter, Out: cplan.OuterLeftMM,
		Root: root, SparseSafe: true, OuterRank: rank}
	op := cplan.Compile(p, "TMP10")
	x := matrix.Rand(50, 70, 0.12, 1, 2, 25)
	u := matrix.Rand(50, rank, 1, -1, 1, 26)
	v := matrix.Rand(70, rank, 1, -1, 1, 27)
	got := ExecOuter(op, x, u, v, nil)
	uvt := matrix.MatMult(u, matrix.Transpose(v))
	want := matrix.MatMult(matrix.Transpose(matrix.Binary(matrix.BinMul, x, uvt)), u)
	if !got.EqualsApprox(want, 1e-9) {
		t.Fatal("outer left-mm mismatch")
	}
}

func TestOuterAggAndNoAgg(t *testing.T) {
	// Fig. 1(d): sum(X * log(UV' + eps)).
	rank := 5
	root := cplan.Binary(matrix.BinMul, cplan.Main(0),
		cplan.Unary(matrix.UnLog, cplan.Binary(matrix.BinAdd, cplan.Dot(), cplan.Lit(1e-15))))
	p := &cplan.Plan{Type: cplan.TemplateOuter, Out: cplan.OuterAgg,
		Root: root, SparseSafe: cplan.ProbeSparseSafe(root), OuterRank: rank}
	if !p.SparseSafe {
		t.Fatal("X*log(dot+eps) must probe sparse-safe")
	}
	op := cplan.Compile(p, "TMP11")
	x := matrix.Rand(40, 50, 0.1, 1, 2, 28)
	u := matrix.Rand(40, rank, 1, 0.1, 1, 29)
	v := matrix.Rand(50, rank, 1, 0.1, 1, 30)
	got := ExecOuter(op, x, u, v, nil).Scalar()
	uvt := matrix.MatMult(u, matrix.Transpose(v))
	logm := matrix.Unary(matrix.UnLog, matrix.ScalarRight(matrix.BinAdd, uvt, 1e-15))
	want := matrix.Sum(matrix.Binary(matrix.BinMul, x, logm))
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("outer agg: got %v want %v", got, want)
	}
	// NoAgg keeps X's pattern.
	p2 := &cplan.Plan{Type: cplan.TemplateOuter, Out: cplan.OuterNoAgg,
		Root: root, SparseSafe: true, OuterRank: rank}
	op2 := cplan.Compile(p2, "TMP12")
	got2 := ExecOuter(op2, x, u, v, nil)
	if !got2.IsSparse() {
		t.Fatal("outer no-agg should stay sparse")
	}
	want2 := matrix.Binary(matrix.BinMul, x, logm)
	if !got2.EqualsApprox(want2, 1e-9) {
		t.Fatal("outer no-agg mismatch")
	}
}

func TestOuterDenseX(t *testing.T) {
	rank := 4
	root := cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Dot())
	p := &cplan.Plan{Type: cplan.TemplateOuter, Out: cplan.OuterAgg,
		Root: root, SparseSafe: true, OuterRank: rank}
	op := cplan.Compile(p, "TMP13")
	x := matrix.Rand(30, 30, 1, -1, 1, 31)
	u := matrix.Rand(30, rank, 1, -1, 1, 32)
	v := matrix.Rand(30, rank, 1, -1, 1, 33)
	got := ExecOuter(op, x, u, v, nil).Scalar()
	uvt := matrix.MatMult(u, matrix.Transpose(v))
	want := matrix.Sum(matrix.Binary(matrix.BinMul, x, uvt))
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("outer dense: got %v want %v", got, want)
	}
}

func TestInterpretedMatchesCompiled(t *testing.T) {
	root := cplan.Binary(matrix.BinAdd,
		cplan.Unary(matrix.UnExp, cplan.Main(0)),
		cplan.Binary(matrix.BinMul, cplan.Side(0, cplan.AccessCell, 0), cplan.Lit(2)))
	p := &cplan.Plan{Type: cplan.TemplateCell, Cell: cplan.CellNoAgg, Root: root}
	x := matrix.Rand(20, 20, 1, -1, 1, 34)
	y := matrix.Rand(20, 20, 1, -1, 1, 35)
	got := ExecCellwise(cplan.Compile(p, "F"), x, []*matrix.Matrix{y})
	ctx := cplan.NewCtx([]*matrix.Matrix{y})
	for k, a := range x.Dense() {
		if want := cplan.InterpretCell(root, ctx, a, 0, k/20, k%20); got.Dense()[k] != want {
			t.Fatalf("cell %d: compiled %v, interpreted %v", k, got.Dense()[k], want)
		}
	}
}

func TestCompileSlowProducesSameOperator(t *testing.T) {
	root := cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Lit(3))
	p := &cplan.Plan{Type: cplan.TemplateCell, Cell: cplan.CellFullAgg, AggOp: matrix.AggSum, Root: root, SparseSafe: true}
	op, err := cplan.CompileSlow(p, "TMP14")
	if err != nil {
		t.Fatalf("CompileSlow: %v", err)
	}
	x := matrix.Rand(10, 10, 1, -1, 1, 36)
	got := ExecCellwise(op, x, nil).Scalar()
	if math.Abs(got-3*matrix.Sum(x)) > 1e-9 {
		t.Fatal("slow-compiled operator wrong")
	}
	if op.Source == "" || op.Hash == 0 {
		t.Fatal("operator missing source artifact or hash")
	}
}

func TestExecuteDAGBasicOps(t *testing.T) {
	d := buildSimpleDAG()
	x := matrix.Rand(30, 10, 1, -1, 1, 37)
	out, err := ExecuteDAG(d, Env{"X": x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Sum(matrix.Binary(matrix.BinMul, x, x))
	if math.Abs(out["s"].Scalar()-want) > 1e-9 {
		t.Fatal("DAG execution mismatch")
	}
}

func buildSimpleDAG() *dagAlias {
	d := newDAG()
	x := d.Read("X", 30, 10, -1)
	d.Output("s", d.Sum(d.Binary(matrix.BinMul, x, x)))
	return d
}

// aliases keep the DAG-building test terse.
type dagAlias = hop.DAG

func newDAG() *dagAlias { return hop.NewDAG() }

func TestRowCumsumInstruction(t *testing.T) {
	// Row program with RCumsumV: per-row running sums.
	n := 16
	p := &cplan.Plan{Type: cplan.TemplateRow, Row: cplan.RowNoAgg,
		Root: cplan.CumsumNode(cplan.Main(n)), MainWidth: n}
	op := cplan.Compile(p, "TC")
	x := matrix.Rand(40, n, 1, -1, 1, 77)
	got := ExecRowwise(op, x, nil)
	want := matrix.Transpose(matrix.Cumsum(matrix.Transpose(x)))
	if !got.EqualsApprox(want, 1e-12) {
		t.Fatal("row cumsum mismatch")
	}
}
