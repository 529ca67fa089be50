// Package runtime executes HOP DAGs: basic operators via the matrix
// kernels, and generated fused operators via the template skeletons
// (SpoofCellwise, SpoofRowwise, SpoofMultiAggregate, SpoofOuterProduct),
// which here are entry points of one tile pass. The pass owns data access
// (dense, sparse, compressed), multi-threading, and aggregation; generated
// operators only supply the genexec body (paper §2.2, Fig. 4).
package runtime

import (
	"sysml/internal/cplan"
	"sysml/internal/matrix"
	"sysml/internal/vector"
)

// Binding names how the pass loaded the registers of a fused operator for
// one invocation; the value is the counter the executor increments.
type Binding string

// The bindings of a fused body.
const (
	BindView Binding = "spoof.bind.view" // dense main, every register a view of its input or written by an instruction
	BindFill Binding = "spoof.bind.fill" // some register gathered or densified: a sparse main or side cell by cell, the Outer dot
	BindNnz  Binding = "spoof.bind.nnz"  // only the stored cells of a sparse main: as a span of cells, or as CSR rows
	BindDict Binding = "spoof.bind.dict" // the dictionaries of a compressed main input
)

// ExecCellwise runs a compiled Cell-template operator over the main input.
func ExecCellwise(op *cplan.Operator, main *matrix.Matrix, sides []*matrix.Matrix) *matrix.Matrix {
	outs, _ := execRoots(matrix.Ctx{}, op, main, sides, nil)
	return outs[0]
}

// ExecMAgg runs a compiled multi-aggregate operator, producing a 1×k row
// of aggregate values in one pass over the shared main input.
func ExecMAgg(op *cplan.Operator, main *matrix.Matrix, sides []*matrix.Matrix) *matrix.Matrix {
	outs, _ := execRoots(matrix.Ctx{}, op, main, sides, nil)
	return packMAgg(matrix.Ctx{}, outs)
}

// packMAgg packs the scalar outputs of a MAgg operator into its 1×k row.
func packMAgg(ec matrix.Ctx, outs []*matrix.Matrix) *matrix.Matrix {
	out := ec.NewDenseUninit(1, len(outs))
	for q, m := range outs {
		out.Dense()[q] = m.Scalar()
	}
	return out
}

// ExecHorizontal runs a compiled Horizontal-template operator, returning
// one output matrix per plan root (in root order).
func ExecHorizontal(op *cplan.Operator, main *matrix.Matrix, sides []*matrix.Matrix) []*matrix.Matrix {
	outs, _ := execRoots(matrix.Ctx{}, op, main, sides, nil)
	return outs
}

// ExecRowwise runs a compiled Row-template operator: one pass over the
// rows of the main input with per-thread tile registers for row
// intermediates (paper Fig. 3c).
func ExecRowwise(op *cplan.Operator, main *matrix.Matrix, sides []*matrix.Matrix) *matrix.Matrix {
	outs, _ := execRoots(matrix.Ctx{}, op, main, sides, nil)
	return outs[0]
}

// execRoots runs a Cell, MAgg, Horizontal or Row operator: the tile pass
// over its roots.
func execRoots(ec matrix.Ctx, op *cplan.Operator, main *matrix.Matrix, sides []*matrix.Matrix, stop StopFn) ([]*matrix.Matrix, Binding) {
	return execPass(ec, op, main, cplan.NewCtx(sides, op.Progs...), stop, nil)
}

// ExecOuter runs a compiled Outer-product-template operator over the
// sparse driver X and factor matrices U (m×r) and V (n×r), exploiting
// sparsity: the genexec body runs only for non-zero cells of X (paper
// Fig. 3a). Dense X falls back to full iteration.
func ExecOuter(op *cplan.Operator, x, u, v *matrix.Matrix, sides []*matrix.Matrix) *matrix.Matrix {
	out, _ := execOuter(matrix.Ctx{}, op, x, u, v, sides, nil)
	return out
}

// outerSink is a matrix product of the Outer template: the sink of the
// body's values, the length of its per-chunk partial (0: rows of out are
// written by one chunk each) and the product.
type outerSink struct {
	sink func(st *worker, b *cplan.Buf, w []float64, o, s int)
	part int
	out  *matrix.Matrix
}

// execOuter is the tile pass with one more leaf register, U_i·V_j per
// visited cell: the full aggregate and the map are the Cell kinds of the
// same name, and the two matrix products consume the body's values a tile
// at a time — W %*% V into the rows of the tile, t(W) %*% U into the
// partial of the tile's chunk, its rows being the columns of the tile.
func execOuter(ec matrix.Ctx, op *cplan.Operator, x, u, v *matrix.Matrix, sides []*matrix.Matrix, stop StopFn) (*matrix.Matrix, Binding) {
	ctx := cplan.NewCtx(sides, op.Progs...)
	ctx.U, ctx.V, ctx.Rank = u.ToDense().Dense(), v.ToDense().Dense(), u.Cols
	r := ctx.Rank
	var sink *outerSink
	switch op.Plan.Out {
	case cplan.OuterRightMM: // C (m×r): C_i += w_ij * V_j
		sink = &outerSink{out: ec.NewDense(x.Rows, r)}
		sink.sink = func(_ *worker, b *cplan.Buf, w []float64, o, s int) {
			if b.Bind != cplan.MainNnz {
				vector.MatMultAdd(w, ctx.V, sink.out.Dense(), o, s, b.C*r, b.I*r, b.N, b.W, r)
				return
			}
			multAddCells(b, w, o, ctx.V, sink.out.Dense(), r, false)
		}
	case cplan.OuterLeftMM: // C (n×r): C_j += w_ij * U_i
		sink = &outerSink{out: ec.NewDenseUninit(x.Cols, r), part: x.Cols * r}
		sink.sink = func(st *worker, b *cplan.Buf, w []float64, o, s int) {
			if b.Bind != cplan.MainNnz {
				vector.TMatMultAdd(w, ctx.U, st.acc[0], o, s, b.I*r, r, b.C*r, b.N, b.W, r)
				return
			}
			multAddCells(b, w, o, ctx.U, st.acc[0], r, true)
		}
	}
	outs, bind := execPass(ec, op, x, ctx, stop, sink)
	if sink != nil {
		return sink.out, bind
	}
	return outs[0], bind
}

// multAddCells accumulates c_i += w_ij * f_j over the stored cells (i, j)
// of b's span — with left set c_j += w_ij * f_i — where w_ij is the body's
// value there (at w[o:], one per cell) and c and f have rows of r cells: a
// CSR-row call per row segment.
func multAddCells(b *cplan.Buf, w []float64, o int, f, c []float64, r int, left bool) {
	for i := b.I; i < b.I+b.NR; i++ {
		lo, hi := b.Seg(i)
		vals, cix := w[o+lo-b.K0:o+hi-b.K0], b.CSR.ColIdx[lo:hi]
		if left {
			vector.OuterMultAddSparse(vals, cix, f, c, i*r, 0, r)
		} else {
			vector.MatMultSparse(vals, cix, f, c, 0, i*r, r)
		}
	}
}

// workCells measures the data-touch work of one fused invocation for the
// cost-audit ledger's "actual FLOPs": the cells the pass visits (stored
// entries where every root reads only those, all cells otherwise) times the
// operations per cell — for a Row operator its instruction count; else the
// covered operations across all root expressions plus, per cell of an Outer
// operator, its rank-r dot product (r the columns of U, ins[1]).
func workCells(op *cplan.Operator, ins []*matrix.Matrix) float64 {
	main := ins[0]
	visited := float64(main.Rows) * float64(main.Cols)
	if main.IsSparse() {
		if b := cplan.BindMain(op.Plan.SparseSafe, op.Progs, main)[0]; b == cplan.MainNnz || b == cplan.MainCSR {
			visited = storedCells(main)
		}
	}
	if op.Plan.Type == cplan.TemplateRow {
		return visited * float64(len(op.Progs[0].Instrs))
	}
	rank := 0
	if op.Plan.Type == cplan.TemplateOuter && len(ins) > 1 {
		rank = ins[1].Cols
	}
	return visited * float64(rank+op.Plan.NumNodes())
}
