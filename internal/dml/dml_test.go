package dml

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/matrix"
)

func newTestSession(mode codegen.Mode) *Session {
	cfg := codegen.DefaultConfig()
	cfg.Mode = mode
	s := NewSession(cfg)
	s.Out = &bytes.Buffer{}
	return s
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"x = ", "if (x { }", "x = foo(", `x = "unterminated`,
		"x = 1 $ 2", "while (1) x = 2",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestLexerNumbersAndRanges(t *testing.T) {
	toks, err := lex("x = X[1:20, 3]\ny = 1.5e-3 + 2.")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.text)
	}
	joined := strings.Join(texts, " ")
	if !strings.Contains(joined, "1 : 20") {
		t.Fatalf("range mis-lexed: %v", joined)
	}
	if !strings.Contains(joined, "1.5e-3") {
		t.Fatalf("exponent mis-lexed: %v", joined)
	}
}

func TestScalarArithmetic(t *testing.T) {
	s := newTestSession(codegen.ModeGen)
	err := s.Run(`
		a = 2 + 3 * 4
		b = (2 + 3) * 4
		c = 2 ^ 3 ^ 2      # right associative: 2^(3^2) = 512
		d = -a
		e = a < b
		f = a == 14
	`)
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{"a": 14, "b": 20, "c": 512, "d": -14, "e": 1, "f": 1}
	for name, want := range checks {
		if got, _ := s.Scalar(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestMatrixProgram(t *testing.T) {
	s := newTestSession(codegen.ModeGen)
	x := matrix.Rand(50, 10, 1, -1, 1, 1)
	s.Bind("X", x)
	err := s.Run(`
		n = nrow(X)
		m = ncol(X)
		s = sum(X * X)
		r = rowSums(X)
		c = colSums(X)
		Xt = t(X)
		v = matrix(1, rows=m, cols=1)
		q = X %*% v
	`)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Scalar("n"); got != 50 {
		t.Fatalf("nrow = %v", got)
	}
	if got, _ := s.Scalar("m"); got != 10 {
		t.Fatalf("ncol = %v", got)
	}
	want := matrix.Sum(matrix.Binary(matrix.BinMul, x, x))
	if got, _ := s.Scalar("s"); math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum(X*X) = %v, want %v", got, want)
	}
	r, _ := s.Get("r")
	if !r.EqualsApprox(matrix.Agg(matrix.AggSum, matrix.DirRow, x), 1e-9) {
		t.Fatal("rowSums mismatch")
	}
	xt, _ := s.Get("Xt")
	if xt.Rows != 10 || xt.Cols != 50 {
		t.Fatal("transpose dims")
	}
	q, _ := s.Get("q")
	if !q.EqualsApprox(matrix.MatMult(x, matrix.Fill(10, 1, 1)), 1e-9) {
		t.Fatal("matmult mismatch")
	}
}

func TestControlFlow(t *testing.T) {
	s := newTestSession(codegen.ModeGen)
	err := s.Run(`
		total = 0
		for (i in 1:10) {
			total = total + i
		}
		j = 0
		k = 0
		while (j < 5) {
			j = j + 1
			k = k + 2
		}
		if (k == 10) { flag = 1 } else { flag = 0 }
		if (k > 100) { big = 1 } else { if (k > 5) { big = 2 } else { big = 3 } }
	`)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Scalar("total"); got != 55 {
		t.Fatalf("total = %v", got)
	}
	if got, _ := s.Scalar("k"); got != 10 {
		t.Fatalf("k = %v", got)
	}
	if got, _ := s.Scalar("flag"); got != 1 {
		t.Fatalf("flag = %v", got)
	}
	if got, _ := s.Scalar("big"); got != 2 {
		t.Fatalf("big = %v", got)
	}
}

func TestIndexing(t *testing.T) {
	s := newTestSession(codegen.ModeGen)
	x := matrix.NewDenseData(3, 4, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	s.Bind("X", x)
	err := s.Run(`
		k = 2
		A = X[1:2, ]
		B = X[, 1:k]
		c = X[2, 3]
		D = X[, 2]
	`)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Get("A")
	if a.Rows != 2 || a.Cols != 4 || a.At(1, 3) != 8 {
		t.Fatalf("A = %v", a)
	}
	b, _ := s.Get("B")
	if b.Rows != 3 || b.Cols != 2 || b.At(2, 1) != 10 {
		t.Fatalf("B = %v", b)
	}
	if got, _ := s.Scalar("c"); got != 7 {
		t.Fatalf("c = %v", got)
	}
	d, _ := s.Get("D")
	if d.Rows != 3 || d.Cols != 1 || d.At(0, 0) != 2 {
		t.Fatalf("D = %v", d)
	}
}

func TestPrint(t *testing.T) {
	s := newTestSession(codegen.ModeGen)
	buf := &bytes.Buffer{}
	s.Out = buf
	if err := s.Run(`print("value: " + (1 + 2) + " end")`); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "value: 3 end" {
		t.Fatalf("print output %q", got)
	}
}

func TestRandAndBuiltins(t *testing.T) {
	s := newTestSession(codegen.ModeGen)
	err := s.Run(`
		R = rand(rows=100, cols=20, sparsity=0.1, min=-1, max=1, seed=42)
		sp = sum(R != 0) / (nrow(R) * ncol(R))
		mn = min(R)
		mx = max(R)
		clipped = min(max(R, -0.5), 0.5)
		i = seq(1, 5, 1)
		si = sum(i)
		e = exp(matrix(0, rows=2, cols=2))
		se = sum(e)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if sp, _ := s.Scalar("sp"); sp < 0.05 || sp > 0.2 {
		t.Fatalf("sparsity = %v", sp)
	}
	if mn, _ := s.Scalar("mn"); mn >= 0 {
		t.Fatalf("min = %v", mn)
	}
	if si, _ := s.Scalar("si"); si != 15 {
		t.Fatalf("sum(seq) = %v", si)
	}
	if se, _ := s.Scalar("se"); se != 4 {
		t.Fatalf("sum(exp(0)) = %v", se)
	}
	cl, _ := s.Get("clipped")
	if matrix.Agg(matrix.AggMax, matrix.DirAll, cl).Scalar() > 0.5 {
		t.Fatal("clip failed")
	}
}

func TestModesAgreeOnProgram(t *testing.T) {
	// An MLogreg-like inner iteration must produce identical results under
	// every optimizer mode.
	script := `
		k = 3
		P = Pfull[, 1:k]
		Q = P * (X %*% B)
		H = t(X) %*% (Q - P * rowSums(Q))
		obj = sum(Q)
	`
	x := matrix.Rand(200, 30, 1, -1, 1, 5)
	b := matrix.Rand(30, 3, 1, -1, 1, 6)
	p := matrix.Rand(200, 4, 1, 0, 1, 7)
	var ref *matrix.Matrix
	var refObj float64
	for _, mode := range []codegen.Mode{codegen.ModeBase, codegen.ModeFused,
		codegen.ModeGen, codegen.ModeGenFA, codegen.ModeGenFNR} {
		s := newTestSession(mode)
		s.Bind("X", x)
		s.Bind("B", b)
		s.Bind("Pfull", p)
		if err := s.Run(script); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		h, _ := s.Get("H")
		obj, _ := s.Scalar("obj")
		if ref == nil {
			ref, refObj = h, obj
			continue
		}
		if !h.EqualsApprox(ref, 1e-7) {
			t.Errorf("mode %v: H differs from Base", mode)
		}
		if math.Abs(obj-refObj) > 1e-7*math.Abs(refObj) {
			t.Errorf("mode %v: obj differs", mode)
		}
	}
}

func TestPlanCacheAcrossIterations(t *testing.T) {
	// With block-plan reuse disabled, every iteration recompiles the block
	// and the operator plan cache absorbs the redundant compilations.
	cfg := codegen.DefaultConfig()
	cfg.ReuseBlockPlans = false
	s := NewSession(cfg)
	s.Out = &bytes.Buffer{}
	s.Bind("X", matrix.Rand(100, 10, 1, -1, 1, 8))
	script := `
		acc = 0
		for (i in 1:10) {
			acc = acc + sum(X * X * i)
		}
	`
	if err := s.Run(script); err != nil {
		t.Fatal(err)
	}
	if s.Stats.CacheHits < 5 {
		t.Fatalf("expected plan cache hits across iterations, got %d (compiled %d)",
			s.Stats.CacheHits, s.Stats.OperatorsCompiled)
	}
	if s.Blocks < 10 {
		t.Fatalf("expected >= 10 compiled blocks, got %d", s.Blocks)
	}
	want, _ := s.Scalar("acc")

	// With block-plan reuse (the default), the block optimizes once and
	// subsequent iterations hit the block cache — same result.
	s2 := newTestSession(codegen.ModeGen)
	s2.Bind("X", matrix.Rand(100, 10, 1, -1, 1, 8))
	if err := s2.Run(script); err != nil {
		t.Fatal(err)
	}
	if s2.BlockCacheHits < 8 {
		t.Fatalf("expected block cache hits, got %d", s2.BlockCacheHits)
	}
	if got, _ := s2.Scalar("acc"); got != want {
		t.Fatalf("block cache changed result: %v vs %v", got, want)
	}
}

func TestUndefinedVariable(t *testing.T) {
	s := newTestSession(codegen.ModeGen)
	if err := s.Run("y = missing + 1"); err == nil {
		t.Fatal("expected undefined-variable error")
	}
}

func TestArrowAssignAndNot(t *testing.T) {
	s := newTestSession(codegen.ModeGen)
	err := s.Run(`
		a <- 5
		b = !(a > 10)
		c = !b
	`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Scalar("a"); v != 5 {
		t.Fatal("arrow assign")
	}
	if v, _ := s.Scalar("b"); v != 1 {
		t.Fatal("not operator")
	}
	if v, _ := s.Scalar("c"); v != 0 {
		t.Fatal("double negation")
	}
}

func TestElseIfChain(t *testing.T) {
	s := newTestSession(codegen.ModeGen)
	err := s.Run(`
		x = 7
		if (x > 10) { r = 1 } else if (x > 5) { r = 2 } else { r = 3 }
	`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Scalar("r"); v != 2 {
		t.Fatalf("else-if chain: r = %v", v)
	}
}

func TestParserErrorLineNumbers(t *testing.T) {
	_, err := Parse("a = 1\nb = 2\nc = @")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("expected line-3 error, got %v", err)
	}
}

func TestUnaryMinusPrecedence(t *testing.T) {
	s := newTestSession(codegen.ModeGen)
	if err := s.Run("a = -2 ^ 2\nb = (-2) ^ 2"); err != nil {
		t.Fatal(err)
	}
	// R semantics: unary minus binds looser than ^.
	if v, _ := s.Scalar("a"); v != -4 {
		t.Fatalf("-2^2 = %v, want -4", v)
	}
	if v, _ := s.Scalar("b"); v != 4 {
		t.Fatalf("(-2)^2 = %v, want 4", v)
	}
}

func TestMatMulPrecedence(t *testing.T) {
	// In R, %*% binds tighter than * and /.
	s := newTestSession(codegen.ModeGen)
	s.Bind("X", matrix.Fill(2, 2, 1))
	s.Bind("Y", matrix.Fill(2, 2, 1))
	if err := s.Run("Z = 2 * X %*% Y"); err != nil {
		t.Fatal(err)
	}
	z, _ := s.Get("Z")
	if z.At(0, 0) != 4 { // 2 * (X %*% Y) = 2 * 2
		t.Fatalf("precedence: Z[0][0] = %v, want 4", z.At(0, 0))
	}
}

func TestCumsumBuiltin(t *testing.T) {
	s := newTestSession(codegen.ModeGen)
	s.Bind("X", matrix.NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6}))
	if err := s.Run(`Y = t(cumsum(t(X)))`); err != nil {
		t.Fatal(err)
	}
	y, _ := s.Get("Y")
	// Row-wise running sums.
	want := matrix.NewDenseData(2, 3, []float64{1, 3, 6, 4, 9, 15})
	if !y.EqualsApprox(want, 0) {
		t.Fatalf("Y = %v", y)
	}
}

// TestMinMaxPropagateNaN pins the one NaN contract of min and max
// (SystemML's Math.min: a NaN operand makes the result NaN) across every
// place that computes one — the full, row and column aggregates of the
// matrix package, the Row template's row aggregates, the cell bodies'
// folds and their partial merges — so that a fused and an unfused plan of
// one script never differ by a NaN. Before the contract, min(X*2) over an
// input with one NaN cell was a number under Base and NaN under Gen.
func TestMinMaxPropagateNaN(t *testing.T) {
	script := `
		a1 = min(X); a2 = max(X)
		r1 = rowMins(X); r2 = rowMaxs(X)
		c1 = colMins(X); c2 = colMaxs(X)
		b1 = min(X * 2 + 1); b2 = max(X * 2 + 1)
		s1 = rowMins(X * 2 + 1); s2 = rowMaxs(X * 2 + 1)
		d1 = colMins(X * 2 + 1); d2 = colMaxs(X * 2 + 1)
	`
	outs := []string{"a1", "a2", "r1", "r2", "c1", "c2", "b1", "b2", "s1", "s2", "d1", "d2"}
	const rows, cols, col = 2000, 6, 3
	for _, sparsity := range []float64{1, 0.3} {
		for _, nanRow := range []int{0, rows / 2, rows - 1} {
			x := matrix.Rand(rows, cols, sparsity, -1, 1, 9).ToDense()
			x.Set(nanRow, col, math.NaN())
			if sparsity < 1 {
				x = x.ToSparse()
			}
			var ref map[string]*matrix.Matrix
			for _, mode := range []codegen.Mode{codegen.ModeBase, codegen.ModeGen, codegen.ModeGenFA, codegen.ModeGenFNR} {
				s := newTestSession(mode)
				s.Bind("X", x)
				if err := s.Run(script); err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				got := map[string]*matrix.Matrix{}
				for _, name := range outs {
					m, _ := s.Get(name)
					got[name] = m.ToDense().Clone()
				}
				if ref == nil {
					ref = got
					// The contract itself, on the reference: every aggregate that
					// covers the NaN cell is NaN, and no other is.
					for _, name := range outs {
						for i, v := range got[name].Dense() {
							covers := true
							switch name[0] {
							case 'r', 's':
								covers = i == nanRow
							case 'c', 'd':
								covers = i == col
							}
							if math.IsNaN(v) != covers {
								t.Errorf("sparsity %v, NaN in row %d: Base %s[%d] = %v", sparsity, nanRow, name, i, v)
							}
						}
					}
					continue
				}
				for _, name := range outs {
					for i, w := range ref[name].Dense() {
						if g := got[name].Dense()[i]; math.IsNaN(g) != math.IsNaN(w) || math.Abs(g-w) > 1e-12 {
							t.Errorf("sparsity %v, NaN in row %d, mode %v: %s[%d] = %v, Base %v", sparsity, nanRow, mode, name, i, g, w)
						}
					}
				}
			}
		}
	}
}

// TestColumnMinMaxFuse: colMins and colMaxs over a fused expression are Row
// operators — the skeleton's one column fold knows min and max, with the NaN
// contract above (the planner used to decline them, because the Row skeleton
// folded row results into columns by adding) — and equal the basic operators
// over a dense and a sparse X with a NaN cell and an all-negative column.
func TestColumnMinMaxFuse(t *testing.T) {
	script := `
		c1 = colMins(X * 2 + 1)
		c2 = colMaxs(abs(X) - Y)
	`
	const rows, cols = 3000, 7
	for _, sparsity := range []float64{1, 0.3} {
		x := matrix.Rand(rows, cols, sparsity, -1, 1, 21).ToDense()
		for i := 0; i < rows; i++ {
			x.Set(i, 2, -1-x.At(i, 2)*x.At(i, 2)) // an all-negative column
		}
		x.Set(rows/3, 5, math.NaN())
		if sparsity < 1 {
			x = x.ToSparse()
		}
		y := matrix.Rand(rows, cols, 1, 2, 3, 22) // abs(X) - Y < 0 everywhere
		outs := map[codegen.Mode]map[string]*matrix.Matrix{}
		for _, mode := range []codegen.Mode{codegen.ModeBase, codegen.ModeGen, codegen.ModeGenFA, codegen.ModeGenFNR} {
			s := newTestSession(mode)
			s.Bind("X", x)
			s.Bind("Y", y)
			if mode != codegen.ModeBase {
				explain, err := s.Explain(script)
				if err != nil {
					t.Fatal(err)
				}
				_, after, _ := strings.Cut(explain, "hops after fusion:")
				if strings.Contains(after, "ua(Cmin)") || strings.Contains(after, "ua(Cmax)") || !strings.Contains(after, "spoof(") {
					t.Errorf("sparsity %v, %v: column min/max left beside the fused operators:\n%s", sparsity, mode, after)
				}
			}
			if err := s.Run(script); err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			outs[mode] = map[string]*matrix.Matrix{}
			for _, name := range []string{"c1", "c2"} {
				m, _ := s.Get(name)
				outs[mode][name] = m.ToDense().Clone()
			}
			for name, want := range outs[codegen.ModeBase] {
				for j, w := range want.Dense() {
					if g := outs[mode][name].Dense()[j]; math.IsNaN(g) != math.IsNaN(w) || math.Abs(g-w) > 1e-12 {
						t.Errorf("sparsity %v, mode %v: %s[%d] = %v, Base %v", sparsity, mode, name, j, g, w)
					}
					if nan := j == 5; math.IsNaN(w) != nan || (!nan && name == "c2" && w >= 0) || (j == 2 && name == "c1" && w >= 0) {
						t.Errorf("sparsity %v: Base %s[%d] = %v", sparsity, name, j, w)
					}
				}
			}
		}
	}
}
