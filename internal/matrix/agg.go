package matrix

import (
	"fmt"

	"sysml/internal/vector"
)

// Agg evaluates an aggregation on the default execution context.
func Agg(op AggOp, dir AggDir, a *Matrix) *Matrix { return Ctx{}.Agg(op, dir, a) }

// Agg evaluates an aggregation over the full matrix, per row, or per
// column. DirAll yields a 1×1 matrix, DirRow an r×1 column vector, DirCol a
// 1×c row vector.
func (ctx Ctx) Agg(op AggOp, dir AggDir, a *Matrix) *Matrix {
	switch dir {
	case DirAll:
		return NewScalar(ctx.aggAll(op, a))
	case DirRow:
		return ctx.aggRows(op, a)
	case DirCol:
		return ctx.aggCols(op, a)
	}
	panic(fmt.Sprintf("matrix: unknown aggregation direction %v", dir))
}

// Sum returns sum(A) as a scalar.
func Sum(a *Matrix) float64 { return Ctx{}.aggAll(AggSum, a) }

func (ctx Ctx) aggAll(op AggOp, a *Matrix) float64 {
	nCells := a.Rows * a.Cols
	switch op {
	case AggSum, AggSumSq, AggMean:
		var s float64
		if a.IsSparse() {
			vals := a.sparse.Values
			if op == AggSumSq {
				s = vector.SumSq(vals, 0, len(vals))
			} else {
				s = vector.Sum(vals, 0, len(vals))
			}
		} else {
			// The cells as one column: foldRows merges the partials in
			// order, so the sum does not depend on which worker took which
			// chunk.
			sum := vector.Sum
			if op == AggSumSq {
				sum = vector.SumSq
			}
			acc := []float64{0}
			ctx.foldRows(len(a.dense), 1, acc,
				func(part []float64, lo, hi int) { part[0] = sum(a.dense, lo, hi-lo) },
				func(part []float64) { acc[0] += part[0] })
			s = acc[0]
		}
		if op == AggMean {
			return s / float64(nCells)
		}
		return s
	case AggMin, AggMax:
		var m float64
		if a.IsSparse() {
			vals := a.sparse.Values
			if op == AggMin {
				m = vector.Min(vals, 0, len(vals))
			} else {
				m = vector.Max(vals, 0, len(vals))
			}
			if len(vals) < nCells { // implicit zeros participate
				if op == AggMin {
					m = vector.Min2(m, 0)
				} else {
					m = vector.Max2(m, 0)
				}
			}
		} else {
			if op == AggMin {
				m = vector.Min(a.dense, 0, len(a.dense))
			} else {
				m = vector.Max(a.dense, 0, len(a.dense))
			}
		}
		return m
	}
	panic(fmt.Sprintf("matrix: unsupported full aggregation %v", op))
}

func (ctx Ctx) aggRows(op AggOp, a *Matrix) *Matrix {
	out := ctx.NewDense(a.Rows, 1)
	ctx.aggRowsInto(out.dense, op, a)
	return out
}

// aggRowsInto writes the per-row aggregate into a caller-provided a.Rows
// destination slice (the backing of AggInto's zero-copy row views).
func (ctx Ctx) aggRowsInto(od []float64, op AggOp, a *Matrix) {
	n := a.Cols
	ctx.Par.For(a.Rows, 64, func(lo, hi int) {
		if !a.IsSparse() {
			op.Rows(a.dense, lo*n, n, od[lo:hi], hi-lo, n)
			return
		}
		for i := lo; i < hi; i++ {
			vals, _ := a.sparse.Row(i)
			switch op {
			case AggSum:
				od[i] = vector.Sum(vals, 0, len(vals))
			case AggSumSq:
				od[i] = vector.SumSq(vals, 0, len(vals))
			case AggMean:
				od[i] = vector.Sum(vals, 0, len(vals)) / float64(n)
			case AggMin:
				od[i] = vector.Min(vals, 0, len(vals))
				if len(vals) < n { // implicit zeros participate
					od[i] = vector.Min2(od[i], 0)
				}
			case AggMax:
				od[i] = vector.Max(vals, 0, len(vals))
				if len(vals) < n {
					od[i] = vector.Max2(od[i], 0)
				}
			}
		}
	})
}

var one = []float64{1}

func (ctx Ctx) aggCols(op AggOp, a *Matrix) *Matrix {
	n := a.Cols
	out := ctx.NewDense(1, n)
	od := out.dense
	switch {
	case a.Rows == 0 || n == 0:
	case op == AggMin || op == AggMax:
		ad := a.ToDense().dense
		k := vector.OpMin
		if op == AggMax {
			k = vector.OpMax
		}
		ctx.foldRows(a.Rows, n, od, func(part []float64, lo, hi int) {
			copy(part, ad[lo*n:(lo+1)*n])
			for i := lo + 1; i < hi; i++ {
				vector.Binary(k, part, ad, part, 0, i*n, 0, n)
			}
		}, func(part []float64) { vector.Binary(k, od, part, od, 0, 0, 0, n) })
	case a.IsSparse():
		for i := 0; i < a.Rows; i++ {
			vals, cols := a.sparse.Row(i)
			for k, j := range cols {
				if op == AggSumSq {
					od[j] += vals[k] * vals[k]
				} else {
					od[j] += vals[k]
				}
			}
		}
	default:
		ctx.foldRows(a.Rows, n, od, func(part []float64, lo, hi int) {
			switch {
			case op == AggSumSq:
				sq := make([]float64, n)
				for i := lo; i < hi; i++ {
					vector.Binary(vector.OpMul, a.dense, a.dense, sq, i*n, i*n, 0, n)
					vector.Add(sq, part, 0, 0, n)
				}
			case n == 1:
				part[0] = vector.Sum(a.dense, lo, hi-lo)
			default:
				// Column sums are t(ones) %*% block: four rows per pass, and
				// the narrow product when there are few columns.
				vector.TMatMultAdd(one, a.dense, part, 0, 0, lo*n, n, 0, hi-lo, 1, n)
			}
		}, func(part []float64) { vector.Add(part, od, 0, 0, n) })
	}
	if op == AggMean {
		for j := range od {
			od[j] /= float64(a.Rows)
		}
	}
	return out
}

// foldRows folds the rows of an n-column matrix into od: fold reduces rows
// [lo, hi) into a partial of its own (zeroed), merge folds a partial into
// od, the first one by copy. Chunks are fixed by the row count and merged
// in row order, so the result does not depend on scheduling.
func (ctx Ctx) foldRows(rows, n int, od []float64, fold func(part []float64, lo, hi int), merge func(part []float64)) {
	nc, _ := ctx.Par.Chunks(rows, max(64, 16384/n))
	if nc <= 1 {
		fold(od, 0, rows)
		return
	}
	size := (rows + nc - 1) / nc
	parts := make([]float64, nc*n)
	ctx.Par.For(nc, 1, func(lo, hi int) {
		for c := lo; c < hi && c*size < rows; c++ {
			fold(parts[c*n:(c+1)*n], c*size, min(rows, (c+1)*size))
		}
	})
	copy(od, parts[:n])
	for c := 1; c*size < rows; c++ {
		merge(parts[c*n : (c+1)*n])
	}
}

// RowIndexMax returns rowIndexMax(A) on the default execution context.
func RowIndexMax(a *Matrix) *Matrix { return Ctx{}.RowIndexMax(a) }

// RowIndexMax returns, per row, the 1-based column index of the row maximum
// (SystemML's rowIndexMax, used for predictions).
func (ctx Ctx) RowIndexMax(a *Matrix) *Matrix {
	ad := a.ToDense().dense
	out := ctx.NewDense(a.Rows, 1)
	n := a.Cols
	ctx.Par.For(a.Rows, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.dense[i] = float64(vector.IndexMax(ad, i*n, n) + 1)
		}
	})
	return out
}
