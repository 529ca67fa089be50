package dml

import (
	"fmt"
	"math"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/matrix"
	"sysml/internal/vector"
)

// runModes runs script under Base, Fused and Gen, each with the assembly
// kernels and on the portable loops, and returns the outputs by
// "mode/asm|go".
func runModes(t *testing.T, script string, in map[string]*matrix.Matrix, outs ...string) map[string]map[string]*matrix.Matrix {
	t.Helper()
	res := map[string]map[string]*matrix.Matrix{}
	for _, mode := range []codegen.Mode{codegen.ModeBase, codegen.ModeFused, codegen.ModeGen} {
		for _, asm := range []bool{true, false} {
			run := func() {
				s := newTestSession(mode)
				for name, m := range in {
					s.Bind(name, m)
				}
				if err := s.Run(script); err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				got := map[string]*matrix.Matrix{}
				for _, name := range outs {
					m, _ := s.Get(name)
					got[name] = m.ToDense().Clone()
				}
				res[fmt.Sprintf("%v/%s", mode, map[bool]string{true: "asm", false: "go"}[asm])] = got
			}
			if asm {
				run()
			} else {
				vector.Portable(run)
			}
		}
	}
	return res
}

// TestTransposedProductSkipsNoZero: t(X) %*% y is a narrow product in every
// mode, so a zero in y meets the +Inf in X as NaN — under Gen too, whose Row
// operator accumulates it a tile at a time (it used to go through the rank-4
// update, which skips four zero multipliers, and returned 4996, 4 and 2
// here), with the kernels and without.
func TestTransposedProductSkipsNoZero(t *testing.T) {
	for _, rows := range []int{3, 8, 5000} {
		x := matrix.NewDense(rows, 10)
		for i := range x.Dense() {
			x.Dense()[i] = 1
		}
		x.Set(0, 0, math.Inf(1))
		y := matrix.NewDense(rows, 1)
		zeros := min(rows-2, 4)
		for i := zeros; i < rows; i++ {
			y.Set(i, 0, 1)
		}
		for run, out := range runModes(t, `g = t(X) %*% y`, map[string]*matrix.Matrix{"X": x, "y": y}, "g") {
			g := out["g"].Dense()
			if !math.IsNaN(g[0]) {
				t.Errorf("%d rows, %s: g[1] = %v, want NaN (0 * Inf)", rows, run, g[0])
			}
			for j, v := range g[1:] {
				if want := float64(rows - zeros); v != want {
					t.Errorf("%d rows, %s: g[%d] = %v, want %v", rows, run, j+2, v, want)
				}
			}
		}
	}
}

// TestCSRMainsImplicitZerosMeetNoNaN states the 0·NaN convention of sparse
// mains: a product over a CSR X reads X's stored cells only, so a NaN or an
// infinity in a row of B that only X's implicit zeros meet (an empty column
// of X), or in a row of D under an empty row of X, does not reach the
// result. X %*% B, t(X) %*% D and a Row operator over both agree under
// Base, Fused and Gen, with the kernels and without, at 1, 2 and 5 columns.
func TestCSRMainsImplicitZerosMeetNoNaN(t *testing.T) {
	const rows, cols, empty = 300, 40, 4 // rows of ~12 stored cells, past the kernels' cutoff
	x := matrix.Rand(rows, cols, 0.3, 0.5, 2, 3).ToDense()
	for i := 0; i < rows; i++ {
		x.Set(i, empty, 0)
		if i%7 == 2 {
			for c := 0; c < cols; c++ {
				x.Set(i, c, 0)
			}
		}
	}
	xs := x.ToSparse()
	salt := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, m := range []int{1, 2, 5} {
		b := matrix.Rand(cols, m, 1, -1, 1, 4).ToDense()
		d := matrix.Rand(rows, m, 1, -1, 1, 5).ToDense()
		for j := 0; j < m; j++ {
			b.Set(empty, j, salt[j%3])
		}
		for i := 2; i < rows; i += 7 {
			d.Set(i, (i/7)%m, salt[i%3])
		}
		res := runModes(t, "P = X %*% B\nQ = t(X) %*% D\nH = t(X) %*% (D * (X %*% B))",
			map[string]*matrix.Matrix{"X": xs, "B": b, "D": d}, "P", "Q", "H")
		ref := res["Base/asm"]
		for run, out := range res {
			for name, want := range ref {
				for i, w := range want.Dense() {
					g := out[name].Dense()[i]
					if math.IsNaN(g) || math.IsInf(g, 0) {
						t.Fatalf("m=%d, %s: %s[%d] = %v: an implicit zero met a NaN or an infinity", m, run, name, i, g)
					}
					if math.Abs(g-w) > 1e-9*(1+math.Abs(w)) {
						t.Errorf("m=%d, %s: %s[%d] = %v, Base %v", m, run, name, i, g, w)
					}
				}
			}
		}
	}
}
