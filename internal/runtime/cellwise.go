// Package runtime executes HOP DAGs: basic operators via the matrix
// kernels, and generated fused operators via the four hand-coded template
// skeletons (SpoofCellwise, SpoofRowwise, SpoofMultiAggregate,
// SpoofOuterProduct). The skeletons own data access (dense, sparse,
// compressed), multi-threading, and aggregation; generated operators only
// supply the genexec body (paper §2.2, Fig. 4).
package runtime

import (
	"sysml/internal/cplan"
	"sysml/internal/matrix"
)

// Binding names how a skeleton loaded the leaf registers of a fused body for
// one invocation (see cplan.Cells); the value is the counter the executor
// increments. Row operators report BindDict over a compressed main input and
// nothing otherwise.
type Binding string

// The bindings of a cell body.
const (
	BindView Binding = "spoof.bind.view" // every register a view of its input
	BindFill Binding = "spoof.bind.fill" // some register written: broadcast, mis-shaped or sparse inputs
	BindNnz  Binding = "spoof.bind.nnz"  // sparse-safe iteration over main's stored cells
	BindDict Binding = "spoof.bind.dict" // the dictionaries of a compressed main input
)

// ExecCellwise runs a compiled Cell-template operator over the main input.
func ExecCellwise(op *cplan.Operator, main *matrix.Matrix, sides []*matrix.Matrix) *matrix.Matrix {
	outs, _ := execCells(matrix.Ctx{}, op, main, sides, nil)
	return outs[0]
}

// ExecMAgg runs a compiled multi-aggregate operator, producing a 1×k row
// of aggregate values in one pass over the shared main input.
func ExecMAgg(op *cplan.Operator, main *matrix.Matrix, sides []*matrix.Matrix) *matrix.Matrix {
	outs, _ := execCells(matrix.Ctx{}, op, main, sides, nil)
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
	outs, _ := execCells(matrix.Ctx{}, op, main, sides, nil)
	return outs
}

// sparseIter reports whether the skeleton visits only the stored cells of
// main: every root must be sparse-safe and every aggregating root
// sum-style (min/max must see the implicit zeros).
func sparseIter(op *cplan.Operator, main *matrix.Matrix) bool {
	if !op.Plan.SparseSafe || !main.IsSparse() {
		return false
	}
	for _, r := range op.Cells {
		if r.Kind != cplan.CellNoAgg && r.Agg != matrix.AggSum && r.Agg != matrix.AggSumSq {
			return false
		}
	}
	return true
}

// workCells measures the data-touch work of one Cell, MAgg, Horizontal or
// Outer invocation: the cells the single shared pass visits (stored entries
// under sparse-safe non-zero iteration, all cells otherwise) times the
// covered operations across all root expressions, plus, per cell of an Outer
// operator, its rank-r dot product. Feeds the cost-audit ledger's "actual
// FLOPs".
func workCells(op *cplan.Operator, main *matrix.Matrix) float64 {
	visited := float64(main.Rows) * float64(main.Cols)
	if sparseIter(op, main) {
		visited = storedCells(main)
	}
	return visited * float64(op.Plan.OuterRank+op.Plan.NumNodes())
}
