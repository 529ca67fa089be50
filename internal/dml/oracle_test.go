package dml

import (
	"fmt"
	"math"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/matrix"
)

// The products against an oracle that shares no code with them: plain
// textbook loops over []float64, no sparse format, no pool, no vector
// kernel. Base runs the same kernels as Fused and Gen, so comparing the
// modes with each other cannot catch a defect in a kernel; every mode, with
// the kernels and on the portable loops (runModes), is compared with the
// loops here instead. The loops encode the numeric contract: every element
// of a dense operand is multiplied, so a zero meets an Inf or NaN as NaN,
// and only the stored cells of a CSR main are (a NaN is stored).

// dense is a rows×cols matrix as a plain slice.
type dense struct {
	rows, cols int
	v          []float64
}

func denseOf(m *matrix.Matrix) dense {
	d := m.ToDense()
	return dense{d.Rows, d.Cols, append([]float64(nil), d.Dense()...)}
}

func (d dense) at(i, j int) float64 { return d.v[i*d.cols+j] }

func (d dense) t() dense {
	out := dense{d.cols, d.rows, make([]float64, len(d.v))}
	for i := 0; i < d.rows; i++ {
		for j := 0; j < d.cols; j++ {
			out.v[j*d.rows+i] = d.at(i, j)
		}
	}
	return out
}

// mm is a %*% b; with stored set, a cell of a that is 0 is an implicit zero
// of a CSR main and takes part in no product.
func mm(a, b dense, stored bool) dense {
	out := dense{a.rows, b.cols, make([]float64, a.rows*b.cols)}
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			x := a.at(i, k)
			if stored && x == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				out.v[i*b.cols+j] += x * b.at(k, j)
			}
		}
	}
	return out
}

// cells applies f to the cells of a and b alike.
func cells(a, b dense, f func(x, y float64) float64) dense {
	out := dense{a.rows, a.cols, make([]float64, len(a.v))}
	for i := range a.v {
		out.v[i] = f(a.v[i], b.v[i])
	}
	return out
}

// checkOracle compares every run's outputs with want: NaN with NaN, an
// infinity exactly, finite values within 1e-9 relative.
func checkOracle(t *testing.T, what string, res map[string]map[string]*matrix.Matrix, want map[string]dense) {
	t.Helper()
	for run, out := range res {
		for name, w := range want {
			g := out[name]
			if g.Rows != w.rows || g.Cols != w.cols {
				t.Fatalf("%s, %s: %s is %dx%d, oracle %dx%d", what, run, name, g.Rows, g.Cols, w.rows, w.cols)
			}
			for i, wv := range w.v {
				gv := g.Dense()[i]
				ok := math.IsNaN(wv) && math.IsNaN(gv) || math.IsInf(wv, 0) && gv == wv ||
					!math.IsNaN(wv) && !math.IsInf(wv, 0) && math.Abs(gv-wv) <= 1e-9*(1+math.Abs(wv))
				if !ok {
					t.Fatalf("%s, %s: %s[%d,%d] = %v, oracle %v", what, run, name, i/w.cols, i%w.cols, gv, wv)
				}
			}
		}
	}
}

// TestDenseProductsMatchTheOracle: A %*% B and t(A) %*% D at the widths of
// the strips (8 and 16 columns, a tail of 1, 2 or 5, and 64), over 103 rows
// (not a multiple of four) and 37 columns, through a column slice of A (a
// strided view where a Row operator reads it in place) and through a Row
// operator's product and t(X) sink. A column of A is zero against a row of
// +Inf in B, and a row of A is half zeros against NaN and -Inf in D: every
// mode gives NaN where a zero meets them.
func TestDenseProductsMatchTheOracle(t *testing.T) {
	const rows, k = 103, 37
	a := matrix.Rand(rows, k, 1, -1, 1, 41).ToDense()
	for i := 0; i < rows; i++ {
		a.Set(i, 5, 0)
	}
	for j := 0; j < k; j += 2 {
		a.Set(7, j, 0)
	}
	for _, n := range []int{8, 9, 10, 13, 16, 17, 64} {
		b := matrix.Rand(k, n, 1, -1, 1, 42).ToDense()
		d := matrix.Rand(rows, n, 1, -1, 1, 43).ToDense()
		for j := 0; j < n; j++ {
			b.Set(5, j, math.Inf(1))
		}
		d.Set(7, 0, math.NaN())
		d.Set(7, n-1, math.Inf(-1))
		b2 := matrix.Rand(28, n, 1, -1, 1, 44).ToDense()
		script := "P = A %*% B\nQ = t(A) %*% D\nS = (A[, 3:30] * 2) %*% B2\nH = t(A) %*% (D * (A %*% B2x))"
		b2x := matrix.Rand(k, n, 1, -1, 1, 45).ToDense()
		res := runModes(t, script, map[string]*matrix.Matrix{"A": a, "B": b, "D": d, "B2": b2, "B2x": b2x}, "P", "Q", "S", "H")
		A, B, D, B2, B2x := denseOf(a), denseOf(b), denseOf(d), denseOf(b2), denseOf(b2x)
		slice := dense{rows, 28, make([]float64, rows*28)}
		for i := 0; i < rows; i++ {
			for j := 0; j < 28; j++ {
				slice.v[i*28+j] = 2 * A.at(i, j+2)
			}
		}
		mul := func(x, y float64) float64 { return x * y }
		checkOracle(t, fmt.Sprintf("n=%d", n), res, map[string]dense{
			"P": mm(A, B, false),
			"Q": mm(A.t(), D, false),
			"S": mm(slice, B2, false),
			"H": mm(A.t(), cells(D, mm(A, B2x, false), mul), false),
		})
	}
}

// TestCSRProductsMatchTheOracle: X %*% B, t(X) %*% D and a Row operator
// over both, X a CSR main of rows of about 12 stored cells, at 8-17 dense
// columns (the wide CSR-row kernels and one width past them). A stored NaN
// and a stored +Inf reach the results; a NaN or an infinity that only an
// implicit zero meets (an empty column of X against a row of B, an empty
// row of X against a row of D) does not. X as the right operand, A %*% X
// with A dense: A's zero column meets X's stored +Inf as NaN, as every
// element of a dense operand is multiplied.
func TestCSRProductsMatchTheOracle(t *testing.T) {
	const rows, cols, empty = 300, 40, 4
	x := matrix.Rand(rows, cols, 0.3, 0.5, 2, 3).ToDense()
	for i := 0; i < rows; i++ {
		x.Set(i, empty, 0)
		if i%7 == 2 {
			for c := 0; c < cols; c++ {
				x.Set(i, c, 0)
			}
		}
	}
	x.Set(10, 11, math.NaN())
	x.Set(20, 12, math.Inf(1))
	xs := x.ToSparse()
	salt := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for m := 8; m <= 17; m++ {
		b := matrix.Rand(cols, m, 1, -1, 1, 4).ToDense()
		d := matrix.Rand(rows, m, 1, -1, 1, 5).ToDense()
		for j := 0; j < m; j++ {
			b.Set(empty, j, salt[j%3])
		}
		for i := 2; i < rows; i += 7 {
			d.Set(i, (i/7)%m, salt[i%3])
		}
		a := matrix.Rand(m, rows, 1, -1, 1, 6).ToDense()
		for i := 0; i < m; i++ {
			a.Set(i, 20, 0) // against X[20, 12] = +Inf
		}
		res := runModes(t, "P = X %*% B\nQ = t(X) %*% D\nH = t(X) %*% (D * (X %*% B))\nL = A %*% X",
			map[string]*matrix.Matrix{"X": xs, "B": b, "D": d, "A": a}, "P", "Q", "H", "L")
		X, B, D, A := denseOf(x), denseOf(b), denseOf(d), denseOf(a)
		mul := func(x, y float64) float64 { return x * y }
		checkOracle(t, fmt.Sprintf("m=%d", m), res, map[string]dense{
			"P": mm(X, B, true),
			"Q": mm(X.t(), D, true),
			"H": mm(X.t(), cells(D, mm(X, B, true), mul), true),
			"L": mm(A, X, false),
		})
	}
}

// TestOuterProductsMatchTheOracle: the Outer template's four outputs — the
// full aggregate, the map, W %*% V and t(W) %*% U for W = X * (U %*% t(V))
// over the stored cells of a CSR X — at rank 10 (a wide CSR-row kernel)
// and 17 (past them), with a stored NaN and a stored +Inf in X. Each output
// is a script of its own, which Gen runs as one Outer operator (a W that
// several outputs read is written once and read by a Row operator); the
// cost audit of a Gen run shows that operator, so a plan that picks
// another template fails here instead of leaving the Outer kernels
// untested.
func TestOuterProductsMatchTheOracle(t *testing.T) {
	const rows, cols = 130, 90
	x := matrix.Rand(rows, cols, 0.08, 1, 5, 7).ToDense()
	x.Set(3, 4, math.NaN())
	x.Set(50, 60, math.Inf(1))
	xs := x.ToSparse()
	for _, r := range []int{10, 17} {
		u := matrix.Rand(rows, r, 1, -1, 1, 8)
		v := matrix.Rand(cols, r, 1, -1, 1, 9)
		X, U, V := denseOf(x), denseOf(u), denseOf(v)
		uv := mm(U, V.t(), false)
		w := cells(X, uv, func(x, p float64) float64 {
			if x == 0 {
				return 0
			}
			return x * p
		})
		var loss float64
		for i, xv := range X.v {
			if xv != 0 {
				e := uv.v[i] - xv
				loss += e * e
			}
		}
		for name, o := range map[string]struct {
			script string
			want   dense
		}{
			"L": {"L = as.matrix(sum((X != 0) * (U %*% t(V) - X)^2))", dense{1, 1, []float64{loss}}},
			"M": {"M = X * (U %*% t(V))", w},
			"R": {"R = (X * (U %*% t(V))) %*% V", mm(w, V, true)},
			"T": {"T = t(X * (U %*% t(V))) %*% U", mm(w.t(), U, true)},
		} {
			in := map[string]*matrix.Matrix{"X": xs, "U": u, "V": v}
			res := runModes(t, o.script, in, name)
			checkOracle(t, fmt.Sprintf("rank %d", r), res, map[string]dense{name: o.want})
			s := newTestSession(codegen.ModeGen)
			for n, m := range in {
				s.Bind(n, m)
			}
			if err := s.Run(o.script); err != nil {
				t.Fatal(err)
			}
			if ta := s.CostAudit().Templates["Outer"]; ta.Count == 0 {
				t.Errorf("rank %d, %s: Gen ran no Outer operator; templates = %+v", r, name, s.CostAudit().Templates)
			}
		}
	}
}
