package matrix

import (
	"math"
	"testing"
	"testing/quick"

	"sysml/internal/par"
)

func mustDense(rows, cols int, vals ...float64) *Matrix {
	return NewDenseData(rows, cols, vals)
}

func TestAtSetDenseSparse(t *testing.T) {
	m := mustDense(2, 3, 1, 0, 2, 0, 3, 0)
	s := m.ToSparse()
	if !s.IsSparse() {
		t.Fatal("ToSparse did not produce sparse")
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != s.At(i, j) {
				t.Fatalf("At(%d,%d) mismatch: %v vs %v", i, j, m.At(i, j), s.At(i, j))
			}
		}
	}
	d2 := s.ToDense()
	if !d2.EqualsApprox(m, 0) {
		t.Fatal("round-trip dense→sparse→dense mismatch")
	}
	s.Set(0, 1, 9) // densifies
	if s.At(0, 1) != 9 || s.IsSparse() {
		t.Fatal("Set on sparse must densify and assign")
	}
}

func TestNnzSparsity(t *testing.T) {
	m := mustDense(2, 2, 1, 0, 0, 2)
	if m.Nnz() != 2 {
		t.Fatalf("Nnz = %d", m.Nnz())
	}
	if m.Sparsity() != 0.5 {
		t.Fatalf("Sparsity = %v", m.Sparsity())
	}
	if m.ToSparse().Nnz() != 2 {
		t.Fatal("sparse Nnz mismatch")
	}
}

func TestScalarMatrix(t *testing.T) {
	s := NewScalar(3.5)
	if s.Scalar() != 3.5 {
		t.Fatal("Scalar round trip")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Scalar() on non-1x1 must panic")
		}
	}()
	NewDense(2, 2).Scalar()
}

func TestBinarySameShape(t *testing.T) {
	a := mustDense(2, 2, 1, 2, 3, 4)
	b := mustDense(2, 2, 5, 6, 7, 8)
	cases := []struct {
		op   BinOp
		want []float64
	}{
		{BinAdd, []float64{6, 8, 10, 12}},
		{BinSub, []float64{-4, -4, -4, -4}},
		{BinMul, []float64{5, 12, 21, 32}},
		{BinDiv, []float64{0.2, 2. / 6, 3. / 7, 0.5}},
		{BinMin, []float64{1, 2, 3, 4}},
		{BinMax, []float64{5, 6, 7, 8}},
		{BinLt, []float64{1, 1, 1, 1}},
		{BinGe, []float64{0, 0, 0, 0}},
	}
	for _, c := range cases {
		got := Binary(c.op, a, b)
		if !got.EqualsApprox(mustDense(2, 2, c.want...), 1e-12) {
			t.Errorf("op %v: got %v", c.op, got)
		}
	}
}

func TestBinarySparsePaths(t *testing.T) {
	a := mustDense(3, 4, 0, 1, 0, 2, 0, 0, 3, 0, 4, 0, 0, 5).ToSparse()
	b := mustDense(3, 4, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3)
	// sparse * dense stays sparse (sparse driver).
	got := Binary(BinMul, a, b)
	if !got.IsSparse() {
		t.Fatal("sparse*dense should stay sparse")
	}
	want := Binary(BinMul, a.ToDense(), b)
	if !got.EqualsApprox(want, 0) {
		t.Fatalf("sparse mul mismatch: %v vs %v", got, want)
	}
	// dense * sparse symmetric driver.
	got2 := Binary(BinMul, b, a)
	if !got2.IsSparse() || !got2.EqualsApprox(want, 0) {
		t.Fatal("dense*sparse driver mismatch")
	}
	// sparse + sparse merge.
	c := mustDense(3, 4, 1, 0, 0, 0, 0, 0, -3, 0, 0, 0, 0, 1).ToSparse()
	sum := Binary(BinAdd, a, c)
	if !sum.IsSparse() {
		t.Fatal("sparse+sparse should stay sparse")
	}
	wantSum := Binary(BinAdd, a.ToDense(), c.ToDense())
	if !sum.EqualsApprox(wantSum, 0) {
		t.Fatalf("sparse merge mismatch: %v vs %v", sum, wantSum)
	}
	// Cancellation drops explicit zeros: a[1][2]=3, c[1][2]=-3.
	if sum.At(1, 2) != 0 {
		t.Fatal("cancellation not applied")
	}
}

func TestBinaryBroadcasts(t *testing.T) {
	a := mustDense(2, 3, 1, 2, 3, 4, 5, 6)
	colv := mustDense(2, 1, 10, 100)
	rowv := mustDense(1, 3, 1, 2, 3)
	got := Binary(BinMul, a, colv)
	if !got.EqualsApprox(mustDense(2, 3, 10, 20, 30, 400, 500, 600), 0) {
		t.Fatalf("col broadcast: %v", got)
	}
	got = Binary(BinAdd, a, rowv)
	if !got.EqualsApprox(mustDense(2, 3, 2, 4, 6, 5, 7, 9), 0) {
		t.Fatalf("row broadcast: %v", got)
	}
	// Vector on the left.
	got = Binary(BinMul, colv, a)
	if !got.EqualsApprox(mustDense(2, 3, 10, 20, 30, 400, 500, 600), 0) {
		t.Fatalf("left col broadcast: %v", got)
	}
	// Scalar matrices on either side.
	got = Binary(BinAdd, a, NewScalar(1))
	if got.At(1, 2) != 7 {
		t.Fatal("scalar right")
	}
	got = Binary(BinSub, NewScalar(10), a)
	if got.At(0, 0) != 9 {
		t.Fatal("scalar left")
	}
	// Sparse column broadcast stays sparse for mul.
	sp := mustDense(2, 3, 0, 2, 0, 3, 0, 0).ToSparse()
	got = Binary(BinMul, sp, colv)
	if !got.IsSparse() || got.At(0, 1) != 20 || got.At(1, 0) != 300 {
		t.Fatalf("sparse col broadcast: %v", got)
	}
	// Sparse row broadcast.
	got = Binary(BinMul, sp, rowv)
	if !got.IsSparse() || got.At(0, 1) != 4 {
		t.Fatalf("sparse row broadcast: %v", got)
	}
}

func TestUnaryOps(t *testing.T) {
	a := mustDense(1, 4, -4, 0, 1, 9)
	if got := Unary(UnAbs, a); got.At(0, 0) != 4 {
		t.Fatal("abs")
	}
	if got := Unary(UnSqrt, a); got.At(0, 3) != 3 {
		t.Fatal("sqrt")
	}
	if got := Unary(UnSign, a); got.At(0, 0) != -1 || got.At(0, 1) != 0 {
		t.Fatal("sign")
	}
	if got := Unary(UnExp, a); math.Abs(got.At(0, 1)-1) > 1e-12 {
		t.Fatal("exp")
	}
	if got := Unary(UnSigmoid, a); got.At(0, 1) != 0.5 {
		t.Fatal("sigmoid")
	}
	if got := Unary(UnNot, a); got.At(0, 1) != 1 || got.At(0, 2) != 0 {
		t.Fatal("not")
	}
	// Sparse-safe unary keeps sparse.
	sp := mustDense(2, 3, 0, -2, 0, 3, 0, 0).ToSparse()
	got := Unary(UnAbs, sp)
	if !got.IsSparse() || got.At(0, 1) != 2 {
		t.Fatal("sparse abs")
	}
	// exp densifies (exp(0)=1).
	if Unary(UnExp, sp).IsSparse() {
		t.Fatal("exp must densify")
	}
}

func TestMatMultAllFormats(t *testing.T) {
	a := mustDense(2, 3, 1, 2, 3, 4, 5, 6)
	b := mustDense(3, 2, 7, 8, 9, 10, 11, 12)
	want := mustDense(2, 2, 58, 64, 139, 154)
	for _, al := range []*Matrix{a, a.ToSparse()} {
		for _, br := range []*Matrix{b, b.ToSparse()} {
			got := MatMult(al, br)
			if !got.EqualsApprox(want, 1e-12) {
				t.Fatalf("matmult(%v sparse=%v, %v sparse=%v) = %v",
					al, al.IsSparse(), br, br.IsSparse(), got)
			}
		}
	}
}

// TestDenseSparseProductMultipliesEveryZero: a dense A %*% CSR B equals,
// bit for bit, the loop that multiplies every cell of A with every stored
// cell of B in order: a zero of A meets B's stored +Inf and NaN as NaN, and
// the rows of B the kernel skips for a zero of A (negative values among
// them, whose products are -0) leave the sums as they are. Row 5 of B sums
// past the largest float and is multiplied.
func TestDenseSparseProductMultipliesEveryZero(t *testing.T) {
	a := Rand(37, 50, 0.5, -2, 2, 11).ToDense()
	b := Rand(50, 20, 0.3, -2, 2, 12).ToDense()
	b.Set(3, 4, math.Inf(1))
	b.Set(9, 0, math.NaN())
	b.Set(5, 1, 1e308)
	b.Set(5, 2, 1e308)
	for i := 0; i < a.Rows; i++ {
		a.Set(i, 3, 0)
	}
	bs := b.ToSparse()
	got := MatMult(a, bs)
	for i := 0; i < a.Rows; i++ {
		want := make([]float64, bs.Cols)
		for k := 0; k < a.Cols; k++ {
			vals, cols := bs.Sparse().Row(k)
			for p, j := range cols {
				want[j] += a.At(i, k) * vals[p]
			}
		}
		for j, w := range want {
			if g := got.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("[%d,%d] = %v, the loop %v", i, j, g, w)
			}
		}
	}
	if !math.IsNaN(got.At(0, 4)) {
		t.Fatalf("a zero against +Inf gave %v", got.At(0, 4))
	}
}

func TestMatMultVector(t *testing.T) {
	a := Rand(50, 7, 1, -1, 1, 42)
	v := Rand(7, 1, 1, -1, 1, 43)
	got := MatMult(a, v)
	for i := 0; i < 50; i++ {
		var want float64
		for j := 0; j < 7; j++ {
			want += a.At(i, j) * v.At(j, 0)
		}
		if math.Abs(got.At(i, 0)-want) > 1e-9 {
			t.Fatalf("row %d: %v vs %v", i, got.At(i, 0), want)
		}
	}
	gotSp := MatMult(a.ToSparse(), v)
	if !gotSp.EqualsApprox(got, 1e-9) {
		t.Fatal("sparse matvec mismatch")
	}
}

func TestMatMultPropertyAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		m, k, n := int(seed%5)+1, int(seed%7)+1, int(seed%3)+1
		if seed < 0 {
			seed = -seed
			m, k, n = 2, 9, 4
		}
		a := Rand(m, k, 0.7, -2, 2, seed)
		b := Rand(k, n, 0.7, -2, 2, seed+1)
		got := MatMult(a, b)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var want float64
				for p := 0; p < k; p++ {
					want += a.At(i, p) * b.At(p, j)
				}
				if math.Abs(got.At(i, j)-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTSMM(t *testing.T) {
	x := Rand(40, 6, 1, -1, 1, 7)
	want := MatMult(Transpose(x), x)
	if got := TSMM(x); !got.EqualsApprox(want, 1e-9) {
		t.Fatalf("dense TSMM mismatch")
	}
	xs := Rand(40, 6, 0.2, -1, 1, 8)
	want = MatMult(Transpose(xs), xs)
	if got := TSMM(xs); !got.EqualsApprox(want, 1e-9) {
		t.Fatalf("sparse TSMM mismatch")
	}
}

func TestAggregations(t *testing.T) {
	a := mustDense(2, 3, 1, 2, 3, 4, 5, 6)
	if Sum(a) != 21 {
		t.Fatal("sum")
	}
	if got := Agg(AggSum, DirRow, a); !got.EqualsApprox(mustDense(2, 1, 6, 15), 0) {
		t.Fatalf("rowSums: %v", got)
	}
	if got := Agg(AggSum, DirCol, a); !got.EqualsApprox(mustDense(1, 3, 5, 7, 9), 0) {
		t.Fatalf("colSums: %v", got)
	}
	if got := Agg(AggMin, DirAll, a).Scalar(); got != 1 {
		t.Fatal("min")
	}
	if got := Agg(AggMax, DirRow, a); !got.EqualsApprox(mustDense(2, 1, 3, 6), 0) {
		t.Fatal("rowMaxs")
	}
	if got := Agg(AggMean, DirAll, a).Scalar(); got != 3.5 {
		t.Fatal("mean")
	}
	if got := Agg(AggSumSq, DirAll, a).Scalar(); got != 91 {
		t.Fatal("sumsq")
	}
	if got := Agg(AggMean, DirCol, a); !got.EqualsApprox(mustDense(1, 3, 2.5, 3.5, 4.5), 0) {
		t.Fatal("colMeans")
	}
}

func TestAggregationsSparse(t *testing.T) {
	sp := mustDense(2, 3, 0, -2, 0, 3, 0, 0).ToSparse()
	if Sum(sp) != 1 {
		t.Fatal("sparse sum")
	}
	// Min over sparse must account for implicit zeros.
	if got := Agg(AggMin, DirAll, sp).Scalar(); got != -2 {
		t.Fatalf("sparse min = %v", got)
	}
	if got := Agg(AggMax, DirAll, sp).Scalar(); got != 3 {
		t.Fatalf("sparse max = %v", got)
	}
	sp2 := mustDense(1, 3, 2, 0, 4).ToSparse()
	if got := Agg(AggMin, DirAll, sp2).Scalar(); got != 0 {
		t.Fatalf("sparse min with implicit zeros = %v", got)
	}
	if got := Agg(AggSum, DirRow, sp); !got.EqualsApprox(mustDense(2, 1, -2, 3), 0) {
		t.Fatal("sparse rowSums")
	}
	if got := Agg(AggSum, DirCol, sp); !got.EqualsApprox(mustDense(1, 3, 3, -2, 0), 0) {
		t.Fatal("sparse colSums")
	}
	if got := Agg(AggMax, DirRow, sp); !got.EqualsApprox(mustDense(2, 1, 0, 3), 0) {
		t.Fatal("sparse rowMaxs must see zeros")
	}
}

// TestFullSumIsDeterministic: a dense sum over several workers folds its
// partials in one fixed order, whichever worker claimed which chunk, so
// repeating it reproduces the result bit for bit.
func TestFullSumIsDeterministic(t *testing.T) {
	ctx := Ctx{Par: par.NewPool(4)}
	a := Rand(500, 100, 1, 1, 2, 7)
	for _, op := range []AggOp{AggSum, AggSumSq} {
		want := ctx.aggAll(op, a)
		for rep := 0; rep < 300; rep++ {
			if got := ctx.aggAll(op, a); got != want {
				t.Fatalf("%v: repetition %d gave %v, the first %v", op, rep, got, want)
			}
		}
	}
}

// sameBits reports whether a and b are dense matrices of one shape whose
// cells agree bit for bit.
func sameBits(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.IsSparse() || b.IsSparse() {
		return false
	}
	for i, v := range a.dense {
		if math.Float64bits(v) != math.Float64bits(b.dense[i]) {
			return false
		}
	}
	return true
}

// TestReductionsAgreeAcrossRuns: on a pool of four participants every run of
// a parallel reduction returns bitwise the same result, whichever
// participant claimed which chunk (TestFullSumIsDeterministic covers the
// full sum).
func TestReductionsAgreeAcrossRuns(t *testing.T) {
	ctx := Ctx{Par: par.NewPool(4)}
	x := Rand(20000, 20, 1, -1, 1, 7)
	xt, y := ctx.Transpose(x), Rand(20000, 5, 1, -1, 1, 8)
	wide := Rand(2000, 100, 1, -1, 1, 9)
	for _, c := range []struct {
		name string
		run  func() *Matrix
	}{
		{"TSMM", func() *Matrix { return ctx.TSMM(x) }},
		{"split-K t(X) %*% Y", func() *Matrix { return ctx.MatMult(xt, y) }},
		{"colSums", func() *Matrix { return ctx.Agg(AggSum, DirCol, wide) }},
		{"colMins", func() *Matrix { return ctx.Agg(AggMin, DirCol, wide) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			first := c.run()
			for rep := 1; rep < 50; rep++ {
				if !sameBits(c.run(), first) {
					t.Fatalf("run %d differs from run 0", rep)
				}
			}
		})
	}
}

func TestRowIndexMax(t *testing.T) {
	a := mustDense(2, 3, 1, 9, 2, 8, 3, 4)
	got := RowIndexMax(a)
	if got.At(0, 0) != 2 || got.At(1, 0) != 1 {
		t.Fatalf("RowIndexMax = %v", got)
	}
}

func TestTranspose(t *testing.T) {
	a := Rand(33, 17, 1, -1, 1, 3)
	at := Transpose(a)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatal("dense transpose mismatch")
			}
		}
	}
	s := Rand(33, 17, 0.15, -1, 1, 4)
	st := Transpose(s)
	if !st.IsSparse() {
		t.Fatal("sparse transpose should stay sparse")
	}
	if !st.EqualsApprox(Transpose(s.ToDense()), 0) {
		t.Fatal("sparse transpose mismatch")
	}
}

func TestIndexRange(t *testing.T) {
	a := mustDense(3, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	got := IndexRange(a, 1, 3, 1, 3)
	if !got.EqualsApprox(mustDense(2, 2, 6, 7, 10, 11), 0) {
		t.Fatalf("IndexRange = %v", got)
	}
	sp := a.ToSparse()
	if !IndexRange(sp, 1, 3, 1, 3).EqualsApprox(got, 0) {
		t.Fatal("sparse IndexRange mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid range must panic")
		}
	}()
	IndexRange(a, 2, 2, 0, 1)
}

func TestCBindRBindDiag(t *testing.T) {
	a := mustDense(2, 2, 1, 2, 3, 4)
	b := mustDense(2, 1, 5, 6)
	got := CBind(a, b)
	if !got.EqualsApprox(mustDense(2, 3, 1, 2, 5, 3, 4, 6), 0) {
		t.Fatalf("CBind = %v", got)
	}
	c := mustDense(1, 2, 7, 8)
	got = RBind(a, c)
	if !got.EqualsApprox(mustDense(3, 2, 1, 2, 3, 4, 7, 8), 0) {
		t.Fatalf("RBind = %v", got)
	}
	d := Diag(mustDense(2, 1, 3, 4))
	if !d.EqualsApprox(mustDense(2, 2, 3, 0, 0, 4), 0) {
		t.Fatalf("Diag expand = %v", d)
	}
	dd := Diag(a)
	if !dd.EqualsApprox(mustDense(2, 1, 1, 4), 0) {
		t.Fatalf("Diag extract = %v", dd)
	}
}

func TestRandAndFill(t *testing.T) {
	m := Rand(100, 50, 0.1, -1, 1, 11)
	if !m.IsSparse() {
		t.Fatal("low-sparsity Rand should be sparse")
	}
	sp := m.Sparsity()
	if sp < 0.05 || sp > 0.2 {
		t.Fatalf("sparsity %v far from 0.1", sp)
	}
	// Determinism.
	m2 := Rand(100, 50, 0.1, -1, 1, 11)
	if !m.EqualsApprox(m2, 0) {
		t.Fatal("Rand not deterministic for same seed")
	}
	d := Rand(10, 10, 1, 5, 5.0001, 1)
	if d.IsSparse() || d.Nnz() != 100 {
		t.Fatal("dense Rand")
	}
	f := Fill(3, 3, 2)
	if Sum(f) != 18 {
		t.Fatal("Fill")
	}
	s := Seq(1, 5, 2)
	if s.Rows != 3 || s.At(2, 0) != 5 {
		t.Fatalf("Seq = %v", s)
	}
	id := Identity(3)
	if Sum(id) != 3 || id.At(1, 1) != 1 {
		t.Fatal("Identity")
	}
}

func TestInPreferredFormat(t *testing.T) {
	dense := Rand(20, 20, 0.9, -1, 1, 1)
	if dense.InPreferredFormat().IsSparse() {
		t.Fatal("dense data should stay dense")
	}
	sparse := Rand(50, 50, 0.05, -1, 1, 2).ToDense()
	if !sparse.InPreferredFormat().IsSparse() {
		t.Fatal("sparse data should convert to sparse")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := mustDense(1, 2, 1, 2)
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone must deep-copy dense")
	}
	s := a.ToSparse()
	c := s.Clone()
	c.sparse.Values[0] = 9
	if s.sparse.Values[0] != 1 {
		t.Fatal("Clone must deep-copy sparse")
	}
}

func TestSizeBytes(t *testing.T) {
	d := NewDense(10, 10)
	if d.SizeBytes() != 800 {
		t.Fatalf("dense SizeBytes = %d", d.SizeBytes())
	}
	s := mustDense(2, 2, 1, 0, 0, 1).ToSparse()
	if s.SizeBytes() != 2*16+3*8 {
		t.Fatalf("sparse SizeBytes = %d", s.SizeBytes())
	}
}

func TestCumsum(t *testing.T) {
	a := mustDense(3, 2, 1, 2, 3, 4, 5, 6)
	got := Cumsum(a)
	want := mustDense(3, 2, 1, 2, 4, 6, 9, 12)
	if !got.EqualsApprox(want, 0) {
		t.Fatalf("Cumsum = %v", got)
	}
	sp := Rand(20, 5, 0.3, -1, 1, 9)
	if !Cumsum(sp).EqualsApprox(Cumsum(sp.ToDense()), 1e-12) {
		t.Fatal("sparse cumsum mismatch")
	}
}
