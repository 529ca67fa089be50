// Package runtime executes HOP DAGs: basic operators via the matrix
// kernels, and generated fused operators via the four hand-coded template
// skeletons (SpoofCellwise, SpoofRowwise, SpoofMultiAggregate,
// SpoofOuterProduct). The skeletons own data access (dense, sparse,
// compressed), multi-threading, and aggregation; generated operators only
// supply the genexec body (paper §2.2, Fig. 4).
package runtime

import (
	"math"

	"sysml/internal/cplan"
	"sysml/internal/matrix"
)

// Tier names the body the cell-bound skeleton ran for one invocation.
type Tier string

// The two bodies of a Cell, MAgg or Horizontal operator; the value is the
// counter the executor increments.
const (
	TierVec  Tier = "spoof.exec.vec"  // every root ran its dense program
	TierCell Tier = "spoof.exec.cell" // some root ran the per-cell closures
)

// ExecCellwise runs a compiled Cell-template operator over the main input.
func ExecCellwise(op *cplan.Operator, main *matrix.Matrix, sides []*matrix.Matrix) *matrix.Matrix {
	out, _ := execCellwise(matrix.Ctx{}, op, main, sides, nil)
	return out
}

func execCellwise(ec matrix.Ctx, op *cplan.Operator, main *matrix.Matrix, sides []*matrix.Matrix, stop StopFn) (*matrix.Matrix, Tier) {
	outs, tier := execCells(ec, op, main, sides, stop)
	return outs[0], tier
}

// ExecMAgg runs a compiled multi-aggregate operator, producing a 1×k row
// of aggregate values in one pass over the shared main input.
func ExecMAgg(op *cplan.Operator, main *matrix.Matrix, sides []*matrix.Matrix) *matrix.Matrix {
	out, _ := execMAgg(matrix.Ctx{}, op, main, sides, nil)
	return out
}

func execMAgg(ec matrix.Ctx, op *cplan.Operator, main *matrix.Matrix, sides []*matrix.Matrix, stop StopFn) (*matrix.Matrix, Tier) {
	outs, tier := execCells(ec, op, main, sides, stop)
	out := ec.NewDenseUninit(1, len(outs))
	for q, m := range outs {
		out.Dense()[q] = m.Scalar()
	}
	return out, tier
}

// ExecHorizontal runs a compiled Horizontal-template operator, returning
// one output matrix per plan root (in root order).
func ExecHorizontal(op *cplan.Operator, main *matrix.Matrix, sides []*matrix.Matrix) []*matrix.Matrix {
	outs, _ := execCells(matrix.Ctx{}, op, main, sides, nil)
	return outs
}

// cellRoot is one output of a cell-bound operator: the single root of a
// Cell plan, or one root of a MAgg or Horizontal plan. vec is nil when the
// root runs the per-cell closure.
type cellRoot struct {
	kind cplan.CellType
	agg  matrix.AggOp
	fn   cplan.CellFunc
	vec  *cplan.CellVecProgram
}

func cellRoots(op *cplan.Operator) []cellRoot {
	p := op.Plan
	if p.Type == cplan.TemplateCell {
		return []cellRoot{{p.Cell, p.AggOp, op.CellFn, op.VecProg}}
	}
	roots := make([]cellRoot, len(p.Roots))
	for q := range roots {
		roots[q] = cellRoot{p.RootKind(q), p.AggOps[q], op.MAggFns[q], op.MAggVecs[q]}
	}
	return roots
}

// sparseIter reports whether the skeleton visits only the stored cells of
// main: every root must be sparse-safe and every aggregating root
// sum-style (min/max must see the implicit zeros).
func sparseIter(p *cplan.Plan, roots []cellRoot, main *matrix.Matrix) bool {
	if !p.SparseSafe || !main.IsSparse() {
		return false
	}
	for _, r := range roots {
		if r.kind != cplan.CellNoAgg && !aggIsSum(r.agg) {
			return false
		}
	}
	return true
}

// workCells measures the data-touch work of one Cell, MAgg or Horizontal
// invocation: the cells the single shared pass visits (stored entries under
// sparse-safe non-zero iteration, all cells otherwise) times the covered
// operations across all root expressions. Feeds the cost-audit ledger's
// "actual FLOPs".
func workCells(op *cplan.Operator, main *matrix.Matrix) float64 {
	visited := float64(main.Rows) * float64(main.Cols)
	if sparseIter(op.Plan, cellRoots(op), main) {
		visited = storedCells(main)
	}
	return visited * float64(op.Plan.NumNodes())
}

func aggIsSum(op matrix.AggOp) bool {
	return op == matrix.AggSum || op == matrix.AggSumSq
}

// aggStep folds one cell value into an accumulator.
func aggStep(op matrix.AggOp, acc, v float64) float64 {
	switch op {
	case matrix.AggMin:
		return math.Min(acc, v)
	case matrix.AggMax:
		return math.Max(acc, v)
	case matrix.AggSumSq:
		return acc + v*v
	}
	return acc + v
}

// newRowScratch returns a densification scratch row for sparse main inputs
// (nil for dense ones), drawn from the matrix buffer pool. Callers release
// it with releaseRowScratch when the worker closure finishes.
func newRowScratch(ec matrix.Ctx, m *matrix.Matrix) []float64 {
	if m.IsSparse() {
		return ec.GetBuf(m.Cols)
	}
	return nil
}

func releaseRowScratch(ec matrix.Ctx, s []float64) {
	if s != nil {
		ec.PutBuf(s)
	}
}

func denseRowView(m *matrix.Matrix, i int, scratch []float64) ([]float64, int) {
	if !m.IsSparse() {
		return m.Dense(), i * m.Cols
	}
	for j := range scratch {
		scratch[j] = 0
	}
	vals, cix := m.Sparse().Row(i)
	for k, j := range cix {
		scratch[j] = vals[k]
	}
	return scratch, 0
}
