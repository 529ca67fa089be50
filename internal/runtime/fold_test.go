package runtime

import (
	"math"
	"testing"

	"sysml/internal/cplan"
	"sysml/internal/matrix"
	"sysml/internal/par"
)

// TestFusedFoldsAgreeAcrossRuns: on a pool of four participants every run of
// a fused reduction returns bitwise the same result, whichever participant
// claimed which chunk.
func TestFusedFoldsAgreeAcrossRuns(t *testing.T) {
	ec := matrix.Ctx{Par: par.NewPool(4)}
	x := matrix.Rand(2000, 100, 1, -1, 1, 51)
	main := cplan.Main(0)
	sq := cplan.Binary(matrix.BinMul, main, main)
	cell := func(kind cplan.CellType, root *cplan.CNode) func() *matrix.Matrix {
		op := cplan.Compile(&cplan.Plan{Type: cplan.TemplateCell, Cell: kind, AggOp: matrix.AggSum,
			Root: root, SparseSafe: cplan.ProbeSparseSafe(root)}, "F")
		return func() *matrix.Matrix { outs, _ := execRoots(ec, op, x, nil, nil); return outs[0] }
	}
	magg := cplan.Compile(&cplan.Plan{Type: cplan.TemplateMAgg, Roots: []*cplan.CNode{sq, main},
		AggOps: []matrix.AggOp{matrix.AggSum, matrix.AggSum}, SparseSafe: true}, "M")

	// t(X) %*% (X %*% v) over a tall X.
	n := 20
	tall, v := matrix.Rand(20000, n, 1, -1, 1, 52), matrix.Rand(n, 1, 1, -1, 1, 53)
	row := cplan.Compile(&cplan.Plan{Type: cplan.TemplateRow, Row: cplan.RowColAggT, MainWidth: n,
		Root: cplan.Agg(matrix.AggSum, cplan.Binary(matrix.BinMul, cplan.Main(n), cplan.Side(0, cplan.AccessRow, n)))}, "R")

	// t(X * UV') %*% U over a sparse X.
	rank := 8
	sx := matrix.Rand(3000, 300, 0.1, 1, 2, 54)
	u, w := matrix.Rand(3000, rank, 1, -1, 1, 55), matrix.Rand(300, rank, 1, -1, 1, 56)
	outer := cplan.Compile(&cplan.Plan{Type: cplan.TemplateOuter, Out: cplan.OuterLeftMM, SparseSafe: true,
		Root: cplan.Binary(matrix.BinMul, main, cplan.Dot())}, "O")

	for _, c := range []struct {
		name string
		run  func() *matrix.Matrix
	}{
		{"FullAgg sum(X^2 + X)", cell(cplan.CellFullAgg, cplan.Binary(matrix.BinAdd, sq, main))},
		{"ColAgg colSums(X * 2)", cell(cplan.CellColAgg, cplan.Binary(matrix.BinMul, main, cplan.Lit(2)))},
		{"MAgg sum(X^2), sum(X)", func() *matrix.Matrix { outs, _ := execRoots(ec, magg, x, nil, nil); return packMAgg(ec, outs) }},
		{"Row t(X) %*% (X %*% v)", func() *matrix.Matrix {
			outs, _ := execRoots(ec, row, tall, []*matrix.Matrix{v}, nil)
			return outs[0]
		}},
		{"Outer t(X * UV') %*% U", func() *matrix.Matrix { out, _ := execOuter(ec, outer, sx, u, w, nil, nil); return out }},
	} {
		t.Run(c.name, func(t *testing.T) {
			first := c.run().Dense()
			for rep := 1; rep < 50; rep++ {
				for i, got := range c.run().Dense() {
					if math.Float64bits(got) != math.Float64bits(first[i]) {
						t.Fatalf("run %d: cell %d is %v, %v on run 0", rep, i, got, first[i])
					}
				}
			}
		})
	}
}
