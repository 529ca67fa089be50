package runtime

import (
	"sysml/internal/cplan"
	"sysml/internal/matrix"
	"sysml/internal/vector"
)

// ExecRowwise runs a compiled Row-template operator: one pass over the
// rows of the main input, a tile of rows at a time, with per-thread tile
// registers for row intermediates (paper Fig. 3c). Sparse main inputs bind
// their CSR rows directly when the program supports it and are densified
// one tile at a time otherwise; side matrices consumed by inner matrix
// products are densified once up front.
func ExecRowwise(op *cplan.Operator, main *matrix.Matrix, sides []*matrix.Matrix) *matrix.Matrix {
	return execRowwise(matrix.Ctx{}, op, main, sides, nil)
}

// workRowwise measures the data-touch work of one Row invocation: the
// main-input elements the row program streams (stored entries when it
// executes directly over sparse rows, all cells otherwise) times the
// instruction count applied per element. Feeds the cost-audit ledger.
func workRowwise(op *cplan.Operator, main *matrix.Matrix) float64 {
	prog := op.RowProg
	elems := float64(main.Rows) * float64(main.Cols)
	if main.IsSparse() && prog.MainSparseCapable() {
		elems = storedCells(main)
	}
	return elems * float64(len(prog.Instrs))
}

// rowGrain is the minimum number of rows per parallel chunk of a Row
// operator.
const rowGrain = 16

func execRowwise(ec matrix.Ctx, op *cplan.Operator, main *matrix.Matrix, sides []*matrix.Matrix, stop StopFn) *matrix.Matrix {
	prog := op.RowProg
	sides = densifyMatMulSides(prog, sides)
	proto := cplan.NewCtx(sides)
	rows := main.Rows
	w := prog.OutWidth

	switch prog.RowT {
	case cplan.RowNoAgg, cplan.RowRowAgg:
		out := ec.NewDenseUninit(rows, w)
		rowResults(ec, prog, proto, main, stop, out.Dense())
		return out

	case cplan.RowColAgg:
		// Tile column sums into a per-worker 1×w partial.
		return rowPartials(ec, prog, proto, main, stop, 1, w, func(part []float64, t *rowTile) {
			res, ro, rs := prog.Result(t.buf)
			for k := 0; k < t.n; k++ {
				vector.Add(res, part, ro+k*rs, 0, w)
			}
		})

	case cplan.RowFullAgg:
		out := rowPartials(ec, prog, proto, main, stop, 1, 1, func(part []float64, t *rowTile) {
			res, ro, rs := prog.Result(t.buf)
			if rs == w {
				part[0] += vector.Sum(res, ro, t.n*w)
				return
			}
			for k := 0; k < t.n; k++ {
				part[0] += vector.Sum(res, ro+k*rs, w)
			}
		})
		return matrix.NewScalar(out.Dense()[0])

	default: // RowColAggT: C (mainWidth × w) += t(main_tile) %*% result_tile
		mw := prog.MainWidth
		return rowPartials(ec, prog, proto, main, stop, mw, w, func(part []float64, t *rowTile) {
			res, ro, rs := prog.Result(t.buf)
			if sp := t.buf.Sparse; sp != nil {
				// genexecSparse: accumulate over the non-zeros of X_i only.
				for k := 0; k < t.n; k++ {
					vals, cix := sp.Row(t.r0 + k)
					if w > 1 {
						vector.OuterMultAddSparse(vals, cix, res, part, ro+k*rs, 0, w)
						continue
					}
					// Scalar result q_i: a call per row would cost more
					// than the few non-zeros it covers.
					q := res[ro+k*rs]
					for p, j := range cix {
						part[j] += q * vals[p]
					}
				}
				return
			}
			vector.TMatMultAdd(t.buf.Vec[0], res, part, t.buf.Off[0], mw, ro, rs, 0, t.n, mw, w)
		})
	}
}

// rowTile is one executed tile handed to a sink: rows [r0, r0+n) of the
// main input, with the program's registers (result included) in buf.
type rowTile struct {
	buf   *cplan.RowBuf
	r0, n int
}

// rowResults runs the program over every row of main and stores row i's
// result (OutWidth values) at od[i*OutWidth]: the NoAgg/RowAgg output, and
// the per-tuple table of the compressed skeleton.
func rowResults(ec matrix.Ctx, prog *cplan.RowProgram, proto *cplan.Ctx, main *matrix.Matrix,
	stop StopFn, od []float64) {
	w := prog.OutWidth
	forEachTile(ec, prog, proto, main, stop, func(_ int, t *rowTile) {
		res, ro, rs := prog.Result(t.buf)
		if rs == w {
			copy(od[t.r0*w:(t.r0+t.n)*w], res[ro:])
			return
		}
		for k := 0; k < t.n; k++ {
			copy(od[(t.r0+k)*w:(t.r0+k+1)*w], res[ro+k*rs:])
		}
	})
}

// rowPartials runs the program with one pr×pc partial per worker, lets
// sink fold every tile into its worker's partial, and returns the sum of
// the partials.
func rowPartials(ec matrix.Ctx, prog *cplan.RowProgram, proto *cplan.Ctx, main *matrix.Matrix,
	stop StopFn, pr, pc int, sink func(part []float64, t *rowTile)) *matrix.Matrix {
	nw, _ := ec.Par.Chunks(main.Rows, rowGrain)
	partials := make([][]float64, nw)
	forEachTile(ec, prog, proto, main, stop, func(wk int, t *rowTile) {
		// A worker may claim several chunks: allocate once, accumulate.
		if partials[wk] == nil {
			partials[wk] = ec.GetBuf(pr * pc)
		}
		sink(partials[wk], t)
	})
	out := ec.NewDense(pr, pc)
	od := out.Dense()
	for _, part := range partials {
		if part != nil {
			vector.Add(part, od, 0, 0, pr*pc)
			ec.PutBuf(part)
		}
	}
	return out
}

// forEachTile streams main through the program a tile at a time, in
// parallel over row chunks, and hands each executed tile to sink together
// with the worker index (for per-worker state). The main tile is bound
// sparse (genexecSparse) when the program supports it, as a view of the
// dense rows, or as a densified copy of the tile's sparse rows.
func forEachTile(ec matrix.Ctx, prog *cplan.RowProgram, proto *cplan.Ctx, main *matrix.Matrix,
	stop StopFn, sink func(worker int, t *rowTile)) {
	sparseExec := main.IsSparse() && prog.MainSparseCapable()
	ec.Par.ForIndexed(main.Rows, rowGrain, func(wk, lo, hi int) {
		ctx := proto.Clone()
		buf := prog.GetBuf(ec.Buf.GetUninit(prog.ArenaFloats))
		defer func() { ec.PutBuf(prog.PutBuf(buf)) }()
		if sparseExec {
			buf.BindSparse(main.Sparse())
		}
		t := rowTile{buf: buf}
		for t.r0 = lo; t.r0 < hi; t.r0 += t.n {
			if stop.stopped() { // one poll per tile
				return
			}
			t.n = min(prog.TileRows, hi-t.r0)
			switch {
			case sparseExec:
			case main.IsSparse():
				prog.BindDensified(buf, main.Sparse(), t.r0, t.n)
			default:
				buf.BindDense(main.Dense(), t.r0*main.Cols)
			}
			prog.ExecTile(ctx, buf, t.r0, t.n)
			sink(wk, &t)
		}
	})
}

// densifyMatMulSides converts side inputs consumed by RMatMul instructions
// (the inner vector-matrix product requires dense layout) and sides read as
// whole vectors (row-zero loads, where a sparse n×1 column vector would
// otherwise be misread) to dense form.
func densifyMatMulSides(prog *cplan.RowProgram, sides []*matrix.Matrix) []*matrix.Matrix {
	var needed []int
	for _, in := range prog.Instrs {
		if in.Op == cplan.RMatMul || (in.Op == cplan.RLoadSideRow && in.RowZero) {
			needed = append(needed, in.Side)
		}
	}
	if len(needed) == 0 {
		return sides
	}
	out := append([]*matrix.Matrix(nil), sides...)
	for _, k := range needed {
		out[k] = out[k].ToDense()
	}
	return out
}
