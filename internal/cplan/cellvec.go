package cplan

import (
	"sync"

	"sysml/internal/matrix"
	"sysml/internal/vector"
)

// CellVecProgram is a vectorized execution form of a Cell-template plan:
// the CNode DAG lowered onto chunks of contiguous cells using the shared
// vector primitives. It stands in for the machine code a JIT produces from
// the scalar genexec body — Go cannot JIT, so the vectorization is made
// explicit. It applies when every side input is addressed flat (same shape
// as the main input) or as a pre-read scalar; per-row/per-column broadcast
// sides keep the scalar genexec path.
type CellVecProgram struct {
	Instrs     []RowInstr
	NumVec     int
	NumScalars int
	ResultReg  int
	ResultVec  bool
	// ChunkSides lists side indexes loaded as flat chunks (they must be
	// dense and main-shaped at execution time).
	ChunkSides []int

	// bufPool recycles chunk registers across invocations (see
	// RowProgram.GetBuf).
	bufPool sync.Pool
}

// ChunkLen is the number of cells processed per vectorized step.
const ChunkLen = 512

// CompileCellVec lowers a cell expression into a chunk program, or nil
// when the expression uses access patterns that need per-cell evaluation
// (row/column broadcasts, the Outer dot, aggregates).
func CompileCellVec(root *CNode) *CellVecProgram {
	c := &cellVecCompiler{
		prog: &CellVecProgram{NumVec: 1}, // register 0: main chunk view
		memo: map[*CNode]regRef{},
	}
	res, ok := c.compile(root)
	if !ok || !res.vec {
		return nil
	}
	c.prog.ResultReg = res.idx
	c.prog.ResultVec = res.vec
	return c.prog
}

type cellVecCompiler struct {
	prog *CellVecProgram
	memo map[*CNode]regRef
}

func (c *cellVecCompiler) newVec() int {
	c.prog.NumVec++
	return c.prog.NumVec - 1
}

func (c *cellVecCompiler) newScal() int {
	c.prog.NumScalars++
	return c.prog.NumScalars - 1
}

func (c *cellVecCompiler) emit(in RowInstr) { c.prog.Instrs = append(c.prog.Instrs, in) }

func (c *cellVecCompiler) compile(n *CNode) (regRef, bool) {
	if r, ok := c.memo[n]; ok {
		return r, true
	}
	r, ok := c.compileNode(n)
	if ok {
		c.memo[n] = r
	}
	return r, ok
}

func (c *cellVecCompiler) compileNode(n *CNode) (regRef, bool) {
	switch n.Kind {
	case NodeMain:
		return regRef{0, true}, true
	case NodeLit:
		d := c.newScal()
		c.emit(RowInstr{Op: RLit, Dst: d, Scalar: n.Value})
		return regRef{d, false}, true
	case NodeSide:
		switch n.Access {
		case AccessScalar:
			d := c.newScal()
			c.emit(RowInstr{Op: RLoadSideVal, Dst: d, Side: n.Side, RowZero: true})
			return regRef{d, false}, true
		case AccessCell:
			d := c.newVec()
			c.emit(RowInstr{Op: RLoadSideRow, Dst: d, Side: n.Side})
			c.prog.ChunkSides = append(c.prog.ChunkSides, n.Side)
			return regRef{d, true}, true
		default:
			return regRef{}, false // row/column broadcasts: per-cell path
		}
	case NodeBinary:
		l, ok1 := c.compile(n.Children[0])
		r, ok2 := c.compile(n.Children[1])
		if !ok1 || !ok2 {
			return regRef{}, false
		}
		switch {
		case l.vec && r.vec:
			d := c.newVec()
			c.emit(RowInstr{Op: RBinVV, BinOp: n.BinOp, Dst: d, Src1: l.idx, Src2: r.idx})
			return regRef{d, true}, true
		case l.vec:
			d := c.newVec()
			c.emit(RowInstr{Op: RBinVS, BinOp: n.BinOp, Dst: d, Src1: l.idx, Src2: r.idx})
			return regRef{d, true}, true
		case r.vec:
			d := c.newVec()
			c.emit(RowInstr{Op: RBinSV, BinOp: n.BinOp, Dst: d, Src1: l.idx, Src2: r.idx})
			return regRef{d, true}, true
		default:
			d := c.newScal()
			c.emit(RowInstr{Op: RBinSS, BinOp: n.BinOp, Dst: d, Src1: l.idx, Src2: r.idx})
			return regRef{d, false}, true
		}
	case NodeUnary:
		s, ok := c.compile(n.Children[0])
		if !ok {
			return regRef{}, false
		}
		if s.vec {
			d := c.newVec()
			c.emit(RowInstr{Op: RUnV, UnOp: n.UnOp, Dst: d, Src1: s.idx})
			return regRef{d, true}, true
		}
		d := c.newScal()
		c.emit(RowInstr{Op: RUnS, UnOp: n.UnOp, Dst: d, Src1: s.idx})
		return regRef{d, false}, true
	}
	return regRef{}, false
}

// CellVecBuf holds per-thread chunk registers: views (register 0 and flat
// side loads alias their inputs) over owned ChunkLen-sized storage.
type CellVecBuf struct {
	vec  [][]float64
	off  []int
	scal []float64
	own  [][]float64
}

// NewBuf allocates chunk registers.
func (p *CellVecProgram) NewBuf() *CellVecBuf {
	b := &CellVecBuf{
		vec:  make([][]float64, p.NumVec),
		off:  make([]int, p.NumVec),
		scal: make([]float64, p.NumScalars),
		own:  make([][]float64, p.NumVec),
	}
	for i := 1; i < p.NumVec; i++ {
		b.own[i] = make([]float64, ChunkLen)
	}
	return b
}

// GetBuf returns chunk registers from the per-program recycling pool.
func (p *CellVecProgram) GetBuf() *CellVecBuf {
	if b, ok := p.bufPool.Get().(*CellVecBuf); ok {
		return b
	}
	return p.NewBuf()
}

// PutBuf parks chunk registers for reuse, dropping the views so the pool
// does not pin the input matrices.
func (p *CellVecProgram) PutBuf(b *CellVecBuf) {
	if b == nil {
		return
	}
	clear(b.vec)
	p.bufPool.Put(b)
}

// Exec evaluates the program over n cells starting at flat offset lo of
// the main input (n <= ChunkLen) and returns the result chunk.
func (p *CellVecProgram) Exec(ctx *Ctx, b *CellVecBuf, main []float64, lo, n int) ([]float64, int) {
	b.vec[0], b.off[0] = main, lo
	// dst points a register at its owned storage and returns it.
	dst := func(reg int) []float64 {
		b.vec[reg], b.off[reg] = b.own[reg], 0
		return b.own[reg]
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch in.Op {
		case RLoadSideRow: // flat chunk view of a dense, main-shaped side
			b.vec[in.Dst], b.off[in.Dst] = ctx.Sides[in.Side].DenseData(), lo
		case RLoadSideVal:
			b.scal[in.Dst] = ctx.SideScalars[in.Side]
		case RLit:
			b.scal[in.Dst] = in.Scalar
		case RBinVV:
			binVV(in.BinOp, b.vec[in.Src1], b.off[in.Src1], b.vec[in.Src2], b.off[in.Src2], dst(in.Dst), n)
		case RBinVS:
			binVS(in.BinOp, b.vec[in.Src1], b.off[in.Src1], b.scal[in.Src2], dst(in.Dst), n)
		case RBinSV:
			binSV(in.BinOp, b.scal[in.Src1], b.vec[in.Src2], b.off[in.Src2], dst(in.Dst), n)
		case RBinSS:
			b.scal[in.Dst] = in.BinOp.Apply(b.scal[in.Src1], b.scal[in.Src2])
		case RUnV:
			unV(in.UnOp, b.vec[in.Src1], b.off[in.Src1], dst(in.Dst), n)
		case RUnS:
			b.scal[in.Dst] = in.UnOp.Apply(b.scal[in.Src1])
		}
	}
	return b.vec[p.ResultReg], b.off[p.ResultReg]
}

// ChunkCompatible reports whether the bound inputs allow vectorized
// execution: a dense main and dense, exactly main-shaped chunk sides.
func (p *CellVecProgram) ChunkCompatible(main *matrix.Matrix, sides []*matrix.Matrix) bool {
	if p == nil || main.IsSparse() {
		return false
	}
	for _, si := range p.ChunkSides {
		s := sides[si]
		if s.IsSparse() || s.Rows != main.Rows || s.Cols != main.Cols {
			return false
		}
	}
	return true
}

// SumChunk adds up a result chunk (FullAgg fast path).
func SumChunk(vals []float64, off, n int) float64 { return vector.Sum(vals, off, n) }
