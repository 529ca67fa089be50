package sysml

import (
	"testing"

	"sysml/internal/compress"
	"sysml/internal/cplan"
	"sysml/internal/data"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/runtime"
)

// BenchmarkCellBindings times one cell-bodied operator per way the tile pass
// loads its registers (see cplan.BindMain, cplan.Buf), at the benchmark's
// sizes: every register a view of its input; a column side, for rows of 100
// cells and of 2 (a scalar register per row since ISSUE 22, a register filled
// cell by cell before — the sub-benchmarks keep their names so that the two
// compare); the stored cells of a sparse main; the dictionaries of a
// compressed main, few large and many small; and the Outer dot leaf at two
// sparsities of the driver.
// To time one alone and single-threaded:
//
//	GOMAXPROCS=1 go test -run '^$' -bench 'CellBindings/nnz' -benchtime 20x .
func BenchmarkCellBindings(b *testing.B) {
	x, y, c := cplan.Main(0), cplan.Side(0, cplan.AccessCell, 0), cplan.Side(0, cplan.AccessCol, 0)
	xyz := cplan.Binary(matrix.BinMul, cplan.Binary(matrix.BinMul, x, y), cplan.Side(1, cplan.AccessCell, 0))
	sumXYZ := cplan.Compile(&cplan.Plan{Type: cplan.TemplateCell, Cell: cplan.CellFullAgg, AggOp: matrix.AggSum,
		Root: xyz, NumSides: 2, SparseSafe: true}, "TMP_XYZ")
	divCol := cplan.Compile(&cplan.Plan{Type: cplan.TemplateCell, Cell: cplan.CellNoAgg,
		Root: cplan.Binary(matrix.BinDiv, x, c), NumSides: 1}, "TMP_DIV")
	sumSq := cplan.Compile(&cplan.Plan{Type: cplan.TemplateCell, Cell: cplan.CellFullAgg, AggOp: matrix.AggSum,
		Root: cplan.Binary(matrix.BinPow, x, cplan.Lit(2)), SparseSafe: true}, "TMP_SQ")
	const rank = 100
	outer := cplan.Compile(&cplan.Plan{Type: cplan.TemplateOuter, Out: cplan.OuterAgg, SparseSafe: true,
		Root: cplan.Binary(matrix.BinMul, x, cplan.Unary(matrix.UnLog,
			cplan.Binary(matrix.BinAdd, cplan.Dot(), cplan.Lit(1e-15))))}, "TMP_OUT")

	cell := func(op *cplan.Operator, main *matrix.Matrix, sides ...*matrix.Matrix) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runtime.ExecCellwise(op, main, sides).Release()
			}
		}
	}
	const rows, cols = 100000, 100
	ys, zs := matrix.Rand(rows, cols, 1, -1, 1, 2), matrix.Rand(rows, cols, 1, -1, 1, 3)
	b.Run("view", cell(sumXYZ, matrix.Rand(rows, cols, 1, -1, 1, 1), ys, zs))
	b.Run("fill/col100", cell(divCol, matrix.Rand(rows, cols, 1, -1, 1, 4), matrix.Rand(rows, 1, 1, 1, 2, 5)))
	b.Run("fill/col2", cell(divCol, matrix.Rand(150000, 2, 1, -1, 1, 6), matrix.Rand(150000, 1, 1, 1, 2, 7)))
	b.Run("nnz", cell(sumXYZ, matrix.Rand(rows, cols, 0.1, -1, 1, 8), ys, zs))
	dict := func(m *matrix.Matrix) func(*testing.B) {
		return func(b *testing.B) {
			compress.Attach(m, compress.Compress(m, compress.DefaultOptions()))
			defer compress.Drop(m)
			h := &hop.Hop{Kind: hop.OpSpoof, Spoof: sumSq}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := runtime.ExecSpoof(matrix.Ctx{}, h, []*matrix.Matrix{m}, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("dict/ddc", dict(data.AirlineLike(rows, 9)))           // 29 dictionary-coded groups
	b.Run("dict/ole", dict(data.MnistLike(rows/5, 9).ToDense())) // 784 offset-list groups
	const n = 2000
	u, v := matrix.Rand(n, rank, 1, 0.1, 1, 10), matrix.Rand(n, rank, 1, 0.1, 1, 11)
	for _, sp := range []struct {
		name string
		sp   float64
	}{{"outer/sp0.1", 0.1}, {"outer/sp0.001", 0.001}} {
		xo := matrix.Rand(n, n, sp.sp, 1, 2, 12)
		b.Run(sp.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runtime.ExecOuter(outer, xo, u, v, nil)
			}
		})
	}
}

// BenchmarkRowNarrow times the Row bodies whose intermediates are narrower
// than a vector kernel call is worth per row — what the data-intensive
// algorithms produce (MLogreg's n×2 class scores, KMeans' n×5 distances,
// the n×1 margins of L2SVM) — at the benchmark's row count, plus one wide
// sigmoid. Each is a chain of tile kernels (vector.RowReduce, ScalarRows,
// ExpWrite) over one tile of rows (Program.TileSize) at a time. To profile one:
//
//	GOMAXPROCS=1 go test -run '^$' -bench 'RowNarrow/softmax' -benchtime 200x -cpuprofile /root/scratch/cpu.out .
func BenchmarkRowNarrow(b *testing.B) {
	const rows = 150000
	row := func(w int, root *cplan.CNode, sides int) *cplan.Operator {
		return cplan.Compile(&cplan.Plan{Type: cplan.TemplateRow, Row: cplan.RowNoAgg, Root: root, NumSides: sides, MainWidth: w}, "TMP_ROW")
	}
	run := func(op *cplan.Operator, main *matrix.Matrix, sides ...*matrix.Matrix) func(*testing.B) {
		return func(b *testing.B) {
			b.SetBytes(int64(8 * main.Rows * main.Cols))
			for i := 0; i < b.N; i++ {
				runtime.ExecRowwise(op, main, sides).Release()
			}
		}
	}
	m2 := cplan.Main(2)
	e := cplan.Unary(matrix.UnExp, cplan.Binary(matrix.BinSub, m2, cplan.Agg(matrix.AggMax, m2)))
	b.Run("softmax/w2", run(row(2, cplan.Binary(matrix.BinDiv, e, cplan.Agg(matrix.AggSum, e)), 0),
		matrix.Rand(rows, 2, 1, -3, 3, 1)))
	m5 := cplan.Main(5)
	hit := cplan.Binary(matrix.BinLe, m5, cplan.Agg(matrix.AggMin, m5))
	b.Run("assign/w5", run(row(5, cplan.Binary(matrix.BinDiv, hit, cplan.Agg(matrix.AggSum, hit)), 0),
		matrix.Rand(rows, 5, 1, 0, 9, 2)))
	hinge := cplan.Binary(matrix.BinGt, cplan.Binary(matrix.BinSub, cplan.Lit(1),
		cplan.Binary(matrix.BinMul, cplan.Side(0, cplan.AccessCol, 0), cplan.Main(1))), cplan.Lit(0))
	b.Run("hinge/w1", run(row(1, hinge, 1), matrix.Rand(rows, 1, 1, -2, 2, 3), matrix.Rand(rows, 1, 1, -1, 1, 4)))
	// X %*% v at 10 columns (L2SVM's and GLM's margin): one dot per row.
	xv := cplan.Agg(matrix.AggSum, cplan.Binary(matrix.BinMul, cplan.Main(10), cplan.Side(0, cplan.AccessRow, 10)))
	b.Run("mv/w10", run(cplan.Compile(&cplan.Plan{Type: cplan.TemplateRow, Row: cplan.RowRowAgg, Root: xv, NumSides: 1, MainWidth: 10}, "TMP_ROW"),
		matrix.Rand(rows, 10, 1, -1, 1, 6), matrix.Rand(10, 1, 1, -1, 1, 7)))
	b.Run("sigmoid/w64", run(row(64, cplan.Unary(matrix.UnSigmoid, cplan.Main(64)), 0), matrix.Rand(512, 64, 1, -4, 4, 5)))
}
