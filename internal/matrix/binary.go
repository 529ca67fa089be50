package matrix

import (
	"fmt"

	"sysml/internal/vector"
)

// Binary evaluates C = A op B on the default execution context.
func Binary(op BinOp, a, b *Matrix) *Matrix { return Ctx{}.Binary(op, a, b) }

// Binary evaluates C = A op B element-wise. Supported shapes: identical
// shapes, scalar (1×1) on either side, column-vector (r×1) broadcast on
// either side, and row-vector (1×c) broadcast of the right side. Sparse
// inputs produce sparse outputs whenever the operation is sparse-safe.
func (ctx Ctx) Binary(op BinOp, a, b *Matrix) *Matrix {
	switch {
	case b.Rows == 1 && b.Cols == 1:
		return ctx.ScalarRight(op, a, b.Scalar())
	case a.Rows == 1 && a.Cols == 1:
		return ctx.ScalarLeft(op, a.Scalar(), b)
	case a.Rows == b.Rows && a.Cols == b.Cols:
		return ctx.binarySameShape(op, a, b)
	case b.Rows == a.Rows && b.Cols == 1:
		return ctx.binaryColVector(op, a, b, false)
	case a.Cols == 1 && b.Cols > 1 && a.Rows == b.Rows:
		return ctx.binaryColVector(op, b, a, true)
	case b.Rows == 1 && b.Cols == a.Cols:
		return ctx.binaryRowVector(op, a, b, false)
	case a.Rows == 1 && a.Cols == b.Cols && b.Rows > 1:
		return ctx.binaryRowVector(op, b, a, true)
	}
	panic(fmt.Sprintf("matrix: incompatible shapes %dx%d %s %dx%d", a.Rows, a.Cols, op, b.Rows, b.Cols))
}

// ScalarRight evaluates C = A op s on the default execution context.
func ScalarRight(op BinOp, a *Matrix, s float64) *Matrix { return Ctx{}.ScalarRight(op, a, s) }

// ScalarRight evaluates C = A op s.
func (ctx Ctx) ScalarRight(op BinOp, a *Matrix, s float64) *Matrix {
	sparseSafe := op.Apply(0, s) == 0
	if a.IsSparse() && sparseSafe {
		out := a.Clone()
		vals := out.sparse.Values
		for k := range vals {
			vals[k] = op.Apply(vals[k], s)
		}
		return out
	}
	ad := a.ToDense().dense
	out := ctx.NewDense(a.Rows, a.Cols)
	ctx.Par.For(len(ad), 4096, func(lo, hi int) {
		vector.Scalar(op.Kernel(), false, ad, s, out.dense, lo, lo, hi-lo)
	})
	return out
}

// ScalarLeft evaluates C = s op B on the default execution context.
func ScalarLeft(op BinOp, s float64, b *Matrix) *Matrix { return Ctx{}.ScalarLeft(op, s, b) }

// ScalarLeft evaluates C = s op B.
func (ctx Ctx) ScalarLeft(op BinOp, s float64, b *Matrix) *Matrix {
	sparseSafe := op.Apply(s, 0) == 0
	if b.IsSparse() && sparseSafe {
		out := b.Clone()
		vals := out.sparse.Values
		for k := range vals {
			vals[k] = op.Apply(s, vals[k])
		}
		return out
	}
	bd := b.ToDense().dense
	out := ctx.NewDense(b.Rows, b.Cols)
	ctx.Par.For(len(bd), 4096, func(lo, hi int) {
		vector.Scalar(op.Kernel(), true, bd, s, out.dense, lo, lo, hi-lo)
	})
	return out
}

func (ctx Ctx) binarySameShape(op BinOp, a, b *Matrix) *Matrix {
	// Sparse-driver cases: a sparse and op(0,y)==0, or symmetric for mul.
	if a.IsSparse() && op.SparseSafeLeft() {
		return sparseDriverLeft(op, a, b)
	}
	if b.IsSparse() && op == BinMul {
		return sparseDriverLeft(op, b, a)
	}
	if a.IsSparse() && b.IsSparse() && op.SparseSafe() {
		return sparseMerge(op, a, b)
	}
	ad, bd := a.ToDense().dense, b.ToDense().dense
	out := ctx.NewDense(a.Rows, a.Cols)
	ctx.Par.For(len(ad), 4096, func(lo, hi int) {
		vector.Binary(op.Kernel(), ad, bd, out.dense, lo, lo, lo, hi-lo)
	})
	return out
}

// sparseDriverLeft evaluates op over the nonzeros of sparse a only; valid
// when op(0, y) == 0 for all y.
func sparseDriverLeft(op BinOp, a, b *Matrix) *Matrix {
	as := a.sparse
	csr := &CSR{
		RowPtr: make([]int, a.Rows+1),
		ColIdx: make([]int, 0, as.Nnz()),
		Values: make([]float64, 0, as.Nnz()),
	}
	// When the driver is the right operand (mul only), commutativity makes
	// op(vals[k], b) == op(b, vals[k]), so a single code path suffices.
	for i := 0; i < a.Rows; i++ {
		vals, cols := as.Row(i)
		for k, j := range cols {
			if v := op.Apply(vals[k], b.At(i, j)); v != 0 {
				csr.ColIdx = append(csr.ColIdx, j)
				csr.Values = append(csr.Values, v)
			}
		}
		csr.RowPtr[i+1] = len(csr.Values)
	}
	return NewSparseCSR(a.Rows, a.Cols, csr)
}

// sparseMerge merges two sparse matrices row-wise for sparse-safe ops.
func sparseMerge(op BinOp, a, b *Matrix) *Matrix {
	as, bs := a.sparse, b.sparse
	csr := &CSR{RowPtr: make([]int, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		avals, acols := as.Row(i)
		bvals, bcols := bs.Row(i)
		ka, kb := 0, 0
		for ka < len(acols) || kb < len(bcols) {
			var j int
			var va, vb float64
			switch {
			case kb >= len(bcols) || (ka < len(acols) && acols[ka] < bcols[kb]):
				j, va = acols[ka], avals[ka]
				ka++
			case ka >= len(acols) || bcols[kb] < acols[ka]:
				j, vb = bcols[kb], bvals[kb]
				kb++
			default:
				j, va, vb = acols[ka], avals[ka], bvals[kb]
				ka, kb = ka+1, kb+1
			}
			if v := op.Apply(va, vb); v != 0 {
				csr.ColIdx = append(csr.ColIdx, j)
				csr.Values = append(csr.Values, v)
			}
		}
		csr.RowPtr[i+1] = len(csr.Values)
	}
	return NewSparseCSR(a.Rows, a.Cols, csr)
}

// binaryColVector evaluates A op v for a column vector v (r×1); swap
// indicates the vector is the left operand (v op A).
func (ctx Ctx) binaryColVector(op BinOp, a, v *Matrix, swap bool) *Matrix {
	vd := v.ToDense().dense
	if a.IsSparse() && ((!swap && op.SparseSafeLeft()) || (swap && op == BinMul)) {
		as := a.sparse
		csr := &CSR{RowPtr: make([]int, a.Rows+1)}
		for i := 0; i < a.Rows; i++ {
			vals, cols := as.Row(i)
			for k, j := range cols {
				var r float64
				if swap {
					r = op.Apply(vd[i], vals[k])
				} else {
					r = op.Apply(vals[k], vd[i])
				}
				if r != 0 {
					csr.ColIdx = append(csr.ColIdx, j)
					csr.Values = append(csr.Values, r)
				}
			}
			csr.RowPtr[i+1] = len(csr.Values)
		}
		return NewSparseCSR(a.Rows, a.Cols, csr)
	}
	ad := a.ToDense().dense
	out := ctx.NewDense(a.Rows, a.Cols)
	n := a.Cols
	ctx.Par.For(a.Rows, 64, func(lo, hi int) {
		vector.ScalarRows(op.Kernel(), swap, ad, lo*n, n, vd, lo, 1, out.dense, lo*n, hi-lo, n)
	})
	return out
}

// binaryRowVector evaluates A op v for a row vector v (1×c); swap
// indicates the vector is the left operand (v op A).
func (ctx Ctx) binaryRowVector(op BinOp, a, v *Matrix, swap bool) *Matrix {
	vd := v.ToDense().dense
	if a.IsSparse() && ((!swap && op.SparseSafeLeft()) || (swap && op == BinMul)) {
		as := a.sparse
		csr := &CSR{RowPtr: make([]int, a.Rows+1)}
		for i := 0; i < a.Rows; i++ {
			vals, cols := as.Row(i)
			for k, j := range cols {
				var r float64
				if swap {
					r = op.Apply(vd[j], vals[k])
				} else {
					r = op.Apply(vals[k], vd[j])
				}
				if r != 0 {
					csr.ColIdx = append(csr.ColIdx, j)
					csr.Values = append(csr.Values, r)
				}
			}
			csr.RowPtr[i+1] = len(csr.Values)
		}
		return NewSparseCSR(a.Rows, a.Cols, csr)
	}
	ad := a.ToDense().dense
	out := ctx.NewDense(a.Rows, a.Cols)
	n := a.Cols
	ctx.Par.For(a.Rows, 64, func(lo, hi int) {
		x, xo, xs, y, yo, ys := ad, lo*n, n, vd, 0, 0
		if swap {
			x, xo, xs, y, yo, ys = y, yo, ys, x, xo, xs
		}
		vector.BinaryRows(op.Kernel(), x, xo, xs, y, yo, ys, out.dense, lo*n, hi-lo, n)
	})
	return out
}

// Unary evaluates C = f(A) on the default execution context.
func Unary(op UnOp, a *Matrix) *Matrix { return Ctx{}.Unary(op, a) }

// Unary evaluates C = f(A) element-wise; sparse-safe functions preserve the
// sparse representation.
func (ctx Ctx) Unary(op UnOp, a *Matrix) *Matrix {
	if a.IsSparse() && op.SparseSafe() {
		out := a.Clone()
		vals := out.sparse.Values
		for k := range vals {
			vals[k] = op.Apply(vals[k])
		}
		return out
	}
	ad := a.ToDense().dense
	out := ctx.NewDense(a.Rows, a.Cols)
	ctx.Par.For(len(ad), 4096, func(lo, hi int) {
		op.Write(ad, out.dense, lo, lo, hi-lo)
	})
	return out
}
