package runtime

import (
	"sysml/internal/cplan"
	"sysml/internal/matrix"
	"sysml/internal/vector"
)

// ExecOuter runs a compiled Outer-product-template operator over the
// sparse driver X and factor matrices U (m×r) and V (n×r), exploiting
// sparsity: the genexec body runs only for non-zero cells of X (paper
// Fig. 3a). Dense X falls back to full iteration.
func ExecOuter(op *cplan.Operator, x, u, v *matrix.Matrix, sides []*matrix.Matrix) *matrix.Matrix {
	out, _ := execOuter(matrix.Ctx{}, op, x, u, v, sides, nil)
	return out
}

// execOuter is the cell pass with one more leaf register, U_i·V_j per
// visited cell: the full aggregate and the map are the Cell kinds of the
// same name, and the two matrix products consume the body's values a tile
// at a time.
func execOuter(ec matrix.Ctx, op *cplan.Operator, x, u, v *matrix.Matrix, sides []*matrix.Matrix, stop StopFn) (*matrix.Matrix, Binding) {
	p := op.Plan
	ud, vd, r := u.ToDense().Dense(), v.ToDense().Dense(), u.Cols
	swap := p.Out == cplan.OuterLeftMM
	if swap {
		// C (n×r) with C_j += w_ij * U_i is the right product over the
		// transposed driver, whose output rows are again disjoint across
		// workers: U and V trade places, and so do the coordinates at which
		// the body reads its sides.
		x, ud, vd = ec.Transpose(x), vd, ud
		sides = append([]*matrix.Matrix(nil), sides...)
		for k, s := range sides {
			if s.IsSparse() && s.Rows > 1 && s.Cols > 1 {
				sides[k] = ec.Transpose(s)
			}
		}
	}
	bind := cplan.NewCells(x, sides)
	bind.U, bind.V, bind.Rank, bind.Swap = ud, vd, r, swap
	if p.Out == cplan.OuterAgg || p.Out == cplan.OuterNoAgg {
		outs, b := cellPass(ec, op, bind, stop, nil)
		return outs[0], b
	}
	// C (m×r): C_i += w_ij * V_j, row-disjoint across workers.
	out := ec.NewDense(x.Rows, r)
	od, xs := out.Dense(), x.Sparse()
	_, b := cellPass(ec, op, bind, stop, func(w []float64, i0, i1 int) {
		for i := i0; i < i1; i++ {
			if !bind.Nnz { // decided by the pass: every cell of the row
				for j, wj := range w[:x.Cols] {
					vector.MultAdd(vd, wj, od, j*r, i*r, r)
				}
				w = w[x.Cols:]
				continue
			}
			_, cix := xs.Row(i)
			for k, j := range cix {
				vector.MultAdd(vd, w[k], od, j*r, i*r, r)
			}
			w = w[len(cix):]
		}
	})
	return out, b
}
