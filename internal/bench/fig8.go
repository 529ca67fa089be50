package bench

import (
	"fmt"

	"sysml/internal/matrix"
)

// The Fig 8 operator scripts (the regret experiment runs them too).
const (
	scriptCell  = "s = sum(X * Y * Z)"
	scriptMAgg  = "s1 = sum(X * Y)\ns2 = sum(X * Z)"
	scriptRow   = "w = t(X) %*% (X %*% v)"
	scriptOuter = "s = sum(X * log(U %*% t(V) + 1e-15))"
)

// fig8Sweep times a script under the five modes over a 100-column X, dense
// or sparse at 0.1, of increasing row count; sides generates what else the
// script reads (seeds count up from X's).
func fig8Sweep(o Options, title, script string, sparse bool, seed int64,
	sides func(rows, cols int, seed int64) map[string]*matrix.Matrix) *Table {
	kind, sp := "dense", 1.0
	if sparse {
		kind, sp = "sparse", 0.1
	}
	t := &Table{Title: title + ", " + kind, Columns: append([]string{"cells"}, ModeNames()...)}
	const cols = 100
	for _, rows := range []int{o.rows(1000), o.rows(10000), o.rows(100000)} {
		inputs := sides(rows, cols, seed)
		inputs["X"] = matrix.Rand(rows, cols, sp, -1, 1, seed)
		row := []string{fmt.Sprintf("%d", rows*cols)}
		for _, mode := range Modes {
			row = append(row, ms(timeScript(mode, o.Reps, script, inputs, nil)))
		}
		t.Add(row...)
	}
	return t
}

// sidesYZ are two more matrices of X's shape; sideV is a cols×n matrix v.
func sidesYZ(rows, cols int, seed int64) map[string]*matrix.Matrix {
	return map[string]*matrix.Matrix{"Y": matrix.Rand(rows, cols, 1, -1, 1, seed+1), "Z": matrix.Rand(rows, cols, 1, -1, 1, seed+2)}
}

func sideV(n int) func(rows, cols int, seed int64) map[string]*matrix.Matrix {
	return func(_, cols int, seed int64) map[string]*matrix.Matrix {
		return map[string]*matrix.Matrix{"v": matrix.Rand(cols, n, 1, -1, 1, seed+1)}
	}
}

// Fig8Cell reproduces Fig. 8(a)/(b): sum(X*Y*Z) over dense or sparse
// inputs of increasing size.
func Fig8Cell(o Options, sparse bool) *Table {
	return fig8Sweep(o, "Fig 8 Cell: sum(X*Y*Z)", scriptCell, sparse, 1, sidesYZ)
}

// Fig8MAgg reproduces Fig. 8(c)/(d): the multi-aggregate pair sum(X*Y),
// sum(X*Z) with shared input X.
func Fig8MAgg(o Options, sparse bool) *Table {
	return fig8Sweep(o, "Fig 8 MAgg: sum(X*Y), sum(X*Z)", scriptMAgg, sparse, 4, sidesYZ)
}

// Fig8Row reproduces Fig. 8(e)/(f): the matrix-vector chain t(X)%*%(X%*%v).
func Fig8Row(o Options, sparse bool) *Table {
	return fig8Sweep(o, "Fig 8 Row: t(X)%*%(X%*%v)", scriptRow, sparse, 7, sideV(1))
}

// Fig8RowMM reproduces Fig. 8(g): the matrix-matrix chain t(X)%*%(X%*%V)
// with a narrow V, where the hand-coded mmchain operator does not apply.
func Fig8RowMM(o Options) *Table {
	return fig8Sweep(o, "Fig 8 RowMM: t(X)%*%(X%*%V), V 100x2", scriptRow, false, 9, sideV(2))
}

// Fig8Outer reproduces Fig. 8(h): sum(X*log(U%*%t(V)+1e-15)) over a
// sparsity sweep of X, the sparsity-exploitation showcase.
func Fig8Outer(o Options) *Table {
	t := &Table{
		Title:   "Fig 8 Outer: sum(X*log(U%*%t(V)+1e-15)), sparsity sweep",
		Columns: append([]string{"sparsity"}, ModeNames()...),
	}
	n := o.rows(2000)
	rank := 100
	u := matrix.Rand(n, rank, 1, 0.1, 1, 11)
	v := matrix.Rand(n, rank, 1, 0.1, 1, 12)
	for _, sp := range []float64{1, 0.1, 0.01, 0.001, 0.0001} {
		inputs := map[string]*matrix.Matrix{
			"X": matrix.Rand(n, n, sp, 1, 2, 13),
			"U": u,
			"V": v,
		}
		row := []string{fmt.Sprintf("%g", sp)}
		for _, mode := range Modes {
			row = append(row, ms(timeScript(mode, o.Reps, scriptOuter, inputs, nil)))
		}
		t.Add(row...)
	}
	return t
}
