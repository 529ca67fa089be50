package cplan

import (
	"math"
	"sync"

	"sysml/internal/matrix"
	"sysml/internal/vector"
)

// CellVecProgram is the dense execution form of one cell-bound root — a Cell
// plan, or one output of a MAgg or Horizontal plan: the root's CNode DAG
// lowered to the register program Row bodies use, run over flat spans of
// cells with the shared vector primitives, the root's aggregation included.
// It stands in for the machine code a JIT produces from the scalar genexec
// body — Go cannot JIT, so the vectorization is made explicit. It applies
// when every side input is addressed flat (same shape as the main input) or
// as a pre-read scalar; per-row/per-column broadcast sides keep the per-cell
// closures.
type CellVecProgram struct {
	Instrs     []RowInstr // the element-wise body
	NumVec     int
	NumScalars int

	Kind CellType
	// Agg folds the body's values for the aggregating kinds. RowAgg and
	// FullAgg programs reduce a span with Red (RAggV over Src1, or RDot over
	// Src1·Src2); ColAgg programs fold ResultReg into column partials (a
	// sum of squares squares in the body and folds as a sum).
	Agg matrix.AggOp
	Red RowInstr
	// ResultReg holds the body's value per cell (NoAgg, ColAgg); view marks
	// a result that aliases an input instead of being written by the body.
	ResultReg int
	view      bool

	// FlatSides lists side indexes read as flat spans: they must be dense
	// and main-shaped at execution time.
	FlatSides []int

	// step is the number of cells per pass over the body: ChunkLen, so the
	// registers the body writes (4 KiB each) stay in the L1 cache, and
	// unbounded for a body that writes none and only views its inputs.
	step int

	// bufPool recycles registers across invocations (see RowProgram.GetBuf).
	bufPool sync.Pool
}

// ChunkLen is the number of cells per step of a body that writes registers.
const ChunkLen = 512

// CompileCellVec lowers a cell root with its output kind and aggregation
// function, or returns nil when the expression needs per-cell evaluation
// (row/column broadcasts, the Outer dot).
func CompileCellVec(root *CNode, kind CellType, agg matrix.AggOp) *CellVecProgram {
	c := newLowering(0, true)
	p := &CellVecProgram{Kind: kind, Agg: agg}
	if kind == CellRowAgg || kind == CellFullAgg {
		if _, ok := c.reduce(agg, root); !ok {
			return nil
		}
		last := len(c.instrs) - 1
		if op := c.instrs[last].Op; op != RAggV && op != RDot {
			return nil // constant body: nothing to reduce
		}
		p.Red, c.instrs = c.instrs[last], c.instrs[:last]
	} else {
		res, ok := c.lower(root)
		if !ok || !res.vec {
			return nil
		}
		if kind == CellColAgg && agg == matrix.AggSumSq {
			res = c.emit(RowInstr{Op: RBinVV, BinOp: matrix.BinMul, Src1: res.idx, Src2: res.idx}, true, 0)
			p.Agg = matrix.AggSum
		}
		p.ResultReg = res.idx
		p.view = root.Kind == NodeMain || root.Kind == NodeSide
	}
	p.Instrs, p.NumVec, p.NumScalars = c.instrs, len(c.vecWidths), len(c.scalUniform)
	p.FlatSides = c.flatSides
	p.step = math.MaxInt
	for _, in := range c.instrs {
		switch in.Op {
		case RBinVV, RBinVS, RBinSV, RUnV:
			p.step = ChunkLen
		}
	}
	return p
}

// CellVecBuf holds per-thread registers: views (register 0 and flat side
// loads alias their inputs) over owned ChunkLen-sized storage, allocated
// when an instruction first writes the register.
type CellVecBuf struct {
	vec  [][]float64
	off  []int
	scal []float64
	own  [][]float64
}

// GetBuf returns registers from the per-program recycling pool.
func (p *CellVecProgram) GetBuf() *CellVecBuf {
	if b, ok := p.bufPool.Get().(*CellVecBuf); ok {
		return b
	}
	return &CellVecBuf{
		vec:  make([][]float64, p.NumVec),
		off:  make([]int, p.NumVec),
		scal: make([]float64, p.NumScalars),
		own:  make([][]float64, p.NumVec),
	}
}

// PutBuf parks registers for reuse, dropping the views so the pool does not
// pin the input and output matrices.
func (p *CellVecProgram) PutBuf(b *CellVecBuf) {
	clear(b.vec)
	p.bufPool.Put(b)
}

// Usable reports whether the bound inputs allow dense execution: a dense
// main and dense, exactly main-shaped flat sides.
func (p *CellVecProgram) Usable(main *matrix.Matrix, sides []*matrix.Matrix) bool {
	if p == nil || main.IsSparse() {
		return false
	}
	for _, si := range p.FlatSides {
		s := sides[si]
		if s.IsSparse() || s.Rows != main.Rows || s.Cols != main.Cols {
			return false
		}
	}
	return true
}

// Exec runs the program over the rows×w cells at flat offset lo of main (and
// of every flat side), a step at a time, and steers the result by output
// kind:
//
//	NoAgg    dst[k] = f(cell k), k < rows·w
//	RowAgg   dst[t] = agg over row t
//	ColAgg   dst[j] = merge(dst[j], agg over column j), j < w
//	FullAgg  dst[0] = merge(dst[0], agg over all cells)
//
// The folding kinds accumulate across calls into partials the caller
// initialized with AggInit.
func (p *CellVecProgram) Exec(ctx *Ctx, b *CellVecBuf, main []float64, lo, rows, w int, dst []float64) {
	if p.Kind == CellNoAgg || p.Kind == CellFullAgg {
		rows, w = 1, rows*w // position-independent: one flat span
	}
	if w == 0 {
		return
	}
	// A step covers br whole rows, or at most p.step columns of one row.
	cw, br := min(w, p.step), max(p.step/w, 1)
	for t0 := 0; t0 < rows; t0 += br {
		nr := min(br, rows-t0)
		for c0 := 0; c0 < w; c0 += cw {
			nc := min(cw, w-c0)
			o, n := t0*w+c0, nr*nc
			switch p.Kind {
			case CellNoAgg:
				p.body(ctx, b, main, lo+o, n, dst[o:o+n])
			case CellColAgg:
				p.body(ctx, b, main, lo+o, n, nil)
				foldCols(p.Agg, b.vec[p.ResultReg], b.off[p.ResultReg], nr, nc, dst[c0:])
			default:
				p.body(ctx, b, main, lo+o, n, nil)
				for t := 0; t < nr; t++ {
					v := p.reduce(b, t*nc, nc)
					if p.Kind == CellFullAgg || c0 > 0 {
						v = AggMerge(p.Agg, dst[t0+t], v)
					}
					dst[t0+t] = v
				}
			}
		}
	}
}

// body evaluates the element-wise instructions over the n cells of one step
// at flat offset lo. With out set, the result register is written there
// instead of into its own storage.
func (p *CellVecProgram) body(ctx *Ctx, b *CellVecBuf, main []float64, lo, n int, out []float64) {
	b.vec[0], b.off[0] = main, lo
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch in.Op {
		case RLoadSideRow: // flat view of a dense, main-shaped side
			b.vec[in.Dst], b.off[in.Dst] = ctx.Sides[in.Side].DenseData(), lo
		case RLoadSideVal:
			b.scal[in.Dst] = ctx.SideScalars[in.Side]
		case RLit:
			b.scal[in.Dst] = in.Scalar
		case RBinVV:
			binVV(in.BinOp, b.vec[in.Src1], b.off[in.Src1], b.vec[in.Src2], b.off[in.Src2], p.dst(b, in.Dst, out), n)
		case RBinVS:
			binVS(in.BinOp, b.vec[in.Src1], b.off[in.Src1], b.scal[in.Src2], p.dst(b, in.Dst, out), n)
		case RBinSV:
			binSV(in.BinOp, b.scal[in.Src1], b.vec[in.Src2], b.off[in.Src2], p.dst(b, in.Dst, out), n)
		case RBinSS:
			b.scal[in.Dst] = in.BinOp.Apply(b.scal[in.Src1], b.scal[in.Src2])
		case RUnV:
			unV(in.UnOp, b.vec[in.Src1], b.off[in.Src1], p.dst(b, in.Dst, out), n)
		case RUnS:
			b.scal[in.Dst] = in.UnOp.Apply(b.scal[in.Src1])
		}
	}
	if out != nil && p.view {
		copy(out, b.vec[p.ResultReg][b.off[p.ResultReg]:][:n])
	}
}

// dst points vector register reg at the storage its instruction writes —
// out for the result register, its own otherwise — and returns it.
func (p *CellVecProgram) dst(b *CellVecBuf, reg int, out []float64) []float64 {
	d := out
	if d == nil || reg != p.ResultReg {
		if b.own[reg] == nil {
			b.own[reg] = make([]float64, ChunkLen)
		}
		d = b.own[reg]
	}
	b.vec[reg], b.off[reg] = d, 0
	return d
}

// reduce applies Red to the n cells at offset o of the current step.
func (p *CellVecProgram) reduce(b *CellVecBuf, o, n int) float64 {
	a, ao := b.vec[p.Red.Src1], b.off[p.Red.Src1]+o
	if p.Red.Op == RDot {
		return vector.DotProduct(a, b.vec[p.Red.Src2], ao, b.off[p.Red.Src2]+o, n)
	}
	switch p.Agg {
	case matrix.AggSum:
		return vector.Sum(a, ao, n)
	case matrix.AggSumSq:
		return vector.SumSq(a, ao, n)
	}
	// min and max propagate NaN like the per-cell closures do, which
	// vector.Min/Max (compare and keep) do not.
	m := AggInit(p.Agg)
	for _, v := range a[ao : ao+n] {
		m = AggMerge(p.Agg, m, v)
	}
	return m
}

var one = []float64{1}

// foldCols folds the rows×n block at a[ao] into the n column partials.
func foldCols(agg matrix.AggOp, a []float64, ao, rows, n int, part []float64) {
	if agg != matrix.AggMin && agg != matrix.AggMax {
		// Column sums are t(block) %*% 1: four rows per pass.
		vector.TMatMultAdd(a, one, part, ao, n, 0, 0, 0, rows, n, 1)
		return
	}
	for t := 0; t < rows; t++ {
		if agg == matrix.AggMin {
			vector.MinWrite(part, a, part, 0, ao+t*n, 0, n)
		} else {
			vector.MaxWrite(part, a, part, 0, ao+t*n, 0, n)
		}
	}
}

// AggInit is the identity of an aggregation function.
func AggInit(op matrix.AggOp) float64 {
	switch op {
	case matrix.AggMin:
		return math.Inf(1)
	case matrix.AggMax:
		return math.Inf(-1)
	}
	return 0
}

// AggMerge folds an aggregated partial into an accumulator: partial sums —
// of squares too — add.
func AggMerge(op matrix.AggOp, acc, partial float64) float64 {
	switch op {
	case matrix.AggMin:
		return math.Min(acc, partial)
	case matrix.AggMax:
		return math.Max(acc, partial)
	}
	return acc + partial
}
