package cplan

import (
	"sync"

	"sysml/internal/matrix"
	"sysml/internal/vector"
)

// RowOpKind identifies one vector instruction of a compiled Row-template
// program. Programs are register machines over per-thread tile registers,
// mirroring the generated Java methods that chain vector primitives (paper
// §2.2, TMP25 example) but applied to a tile of rows at a time.
type RowOpKind int

// Row program instructions. V suffixes denote vector registers, S scalar
// registers.
const (
	RLoadSideRow RowOpKind = iota // vec[dst] = side[Side] row (rix or row 0)
	RLoadSideVal                  // scal[dst] = side[Side].Value(rix,0) or (0,0); cell bodies: vec[dst], (rix,0) per cell
	RLit                          // scal[dst] = Scalar
	RBinVV                        // vec[dst] = vec[src1] op vec[src2]
	RBinVS                        // vec[dst] = vec[src1] op scal[src2]
	RBinSV                        // vec[dst] = scal[src1] op vec[src2]
	RBinSS                        // scal[dst] = scal[src1] op scal[src2]
	RUnV                          // vec[dst] = op(vec[src1])
	RUnS                          // scal[dst] = op(scal[src1])
	RAggV                         // scal[dst] = agg(vec[src1])
	RMatMul                       // vec[dst] = vec[src1] %*% side[Side]
	RIdxV                         // vec[dst] = vec[src1][CL:CU)
	RDot                          // scal[dst] = dot(vec[src1], vec[src2])
	RCumsumV                      // vec[dst] = cumsum(vec[src1])
	RLoadDot                      // cell bodies: vec[dst] = U_i·V_j per cell (Outer)
	RSplat                        // cell bodies: vec[dst] = scal[src1] per cell
)

// RowInstr is one instruction of a Row program.
type RowInstr struct {
	Op         RowOpKind
	BinOp      matrix.BinOp
	UnOp       matrix.UnOp
	AggOp      matrix.AggOp
	Dst        int
	Src1, Src2 int
	Side       int
	RowZero    bool // side row access uses row 0 (1×c row-vector side)
	Scalar     float64
	CL, CU     int
	// Uniform marks an instruction whose result is the same for every row
	// (set by the lowering, see RowProgram.VecUniform).
	Uniform bool
}

// RowProgram is a compiled Row-template operator body: a straight-line
// vector program executed once per tile of consecutive input rows. Vector
// registers hold TileRows×width tiles and scalar registers one value per
// tile row, so the instruction dispatch is paid per tile, not per row.
type RowProgram struct {
	Instrs     []RowInstr
	VecWidths  []int // width per vector register; register 0 is the main row
	NumScalars int
	MainWidth  int

	// VecUniform and ScalUniform mark registers that hold the same value
	// for every row (literals, scalar and row-vector sides, and whatever
	// is computed from those alone). They are evaluated once per bound
	// buffer, keep a single row, and enter tile operations as broadcasts.
	VecUniform  []bool
	ScalUniform []bool

	RowT      RowType
	OutWidth  int
	ResultReg int  // final vector or scalar register
	ResultVec bool // whether the result register is a vector

	// TileRows is the number of rows per tile, sized so the registers of
	// one tile stay cache-resident (see layout). ArenaFloats is the size of
	// the storage one worker needs for all registers of a tile; vecOff and
	// scalOff place each register in it.
	TileRows    int
	ArenaFloats int
	vecOff      []int
	scalOff     []int

	// bufPool recycles the register views across invocations of this
	// operator (the arena comes from the caller's buffer pool).
	bufPool sync.Pool
}

// Tile sizing: a tile's registers should fit the core's private cache with
// room for the side matrices an RMatMul streams against, so the budget is
// about half of a 256 KiB L2. The row bounds keep per-tile dispatch
// amortized for very wide programs and the per-worker footprint small for
// very narrow ones.
const (
	rowTileBytes   = 128 << 10
	rowTileMinRows = 8
	rowTileMaxRows = 1024
)

// layout derives the tile height from the program's register footprint
// (the bytes one row occupies across all per-row registers) and places the
// registers in the arena. Register 0 gets a slot too: it holds the
// densified tile of a sparse main input the program cannot bind sparse.
// Arenas are rowTileBytes large whenever the registers fit, so programs
// share one size class of the buffer pool.
func (p *RowProgram) layout() {
	perRow := 0
	for i, w := range p.VecWidths {
		if !p.VecUniform[i] {
			perRow += w
		}
	}
	for _, u := range p.ScalUniform {
		if !u {
			perRow++
		}
	}
	t := rowTileBytes / (8 * max(perRow, 1))
	p.TileRows = min(max(t, rowTileMinRows), rowTileMaxRows)

	off := 0
	p.vecOff = make([]int, len(p.VecWidths))
	for i, w := range p.VecWidths {
		p.vecOff[i] = off
		if p.VecUniform[i] {
			off += w
		} else {
			off += p.TileRows * w
		}
	}
	p.scalOff = make([]int, p.NumScalars)
	for i, u := range p.ScalUniform {
		p.scalOff[i] = off
		if u {
			off++
		} else {
			off += p.TileRows
		}
	}
	p.ArenaFloats = max(off, rowTileBytes/8)
}

// stride is the row stride of a vector register's view: its width, or 0
// for uniform registers (every tile row reads the same single row).
func (p *RowProgram) stride(reg int) int {
	if p.VecUniform[reg] {
		return 0
	}
	return p.VecWidths[reg]
}

// MainSparseCapable reports whether the program can execute directly over
// sparse main rows (the genexecSparse path): register 0 may only feed
// sparse-safe consumers — inner matrix products and sum aggregates — plus
// the ColAggT outer accumulation handled by the skeleton.
func (p *RowProgram) MainSparseCapable() bool {
	for i := range p.Instrs {
		in := &p.Instrs[i]
		var uses0 bool
		switch in.Op {
		case RBinVV:
			uses0 = in.Src1 == 0 || in.Src2 == 0
		case RBinVS, RUnV, RIdxV, RCumsumV:
			uses0 = in.Src1 == 0
		case RBinSV:
			uses0 = in.Src2 == 0
		case RAggV:
			if in.Src1 == 0 && in.AggOp != matrix.AggSum && in.AggOp != matrix.AggSumSq {
				return false
			}
			continue
		case RMatMul, RDot:
			continue // sparse kernels available
		default:
			continue
		}
		if uses0 {
			return false
		}
	}
	// The result itself must not be the raw main row.
	if p.ResultVec && p.ResultReg == 0 {
		return false
	}
	return true
}

// RowBuf is the per-thread set of tile registers (paper: "memory for row
// intermediates is managed via a preallocated ring buffer per thread").
// Vec/Off are views: register 0 aliases the main tile, loads of dense sides
// alias the side's rows, everything else points into the arena.
type RowBuf struct {
	Vec  [][]float64
	Off  []int
	Scal [][]float64 // one value per tile row; uniform registers use [0]

	arena  []float64
	primed bool // uniform instructions have run for the current binding

	// Sparse main binding (genexecSparse): when Sparse is set, register 0
	// is unavailable as a dense view and instructions consuming it run the
	// sparse kernels over the tile's CSR rows.
	Sparse *matrix.CSR
}

// GetBuf returns tile registers over arena (ArenaFloats long, contents
// arbitrary), recycling the views from the per-program pool.
func (p *RowProgram) GetBuf(arena []float64) *RowBuf {
	b, ok := p.bufPool.Get().(*RowBuf)
	if !ok {
		nv := len(p.VecWidths)
		b = &RowBuf{
			Vec:  make([][]float64, nv),
			Off:  make([]int, nv),
			Scal: make([][]float64, p.NumScalars),
		}
	}
	b.arena = arena
	return b
}

// PutBuf parks the register views for reuse and hands the arena back.
// Views are cleared first so the pool does not pin input matrices:
// register 0 and dense side loads alias caller data, and the sparse
// binding aliases the input CSR.
func (p *RowProgram) PutBuf(b *RowBuf) (arena []float64) {
	arena = b.arena
	clear(b.Vec)
	clear(b.Scal)
	b.arena, b.Sparse, b.primed = nil, nil, false
	p.bufPool.Put(b)
	return arena
}

// BindDense binds register 0 to a dense tile whose first row starts at
// main[off]; rows are MainWidth apart.
func (b *RowBuf) BindDense(main []float64, off int) {
	b.Vec[0], b.Off[0], b.Sparse = main, off, nil
}

// BindSparse binds register 0 to rows of a CSR main input; ExecTile's r0
// selects the tile's rows.
func (b *RowBuf) BindSparse(main *matrix.CSR) {
	b.Vec[0], b.Sparse = nil, main
}

// BindDensified binds register 0 to a dense copy of CSR rows [r0, r0+n),
// for programs that are not MainSparseCapable.
func (p *RowProgram) BindDensified(b *RowBuf, main *matrix.CSR, r0, n int) {
	mc := p.MainWidth
	d := p.vec(b, 0)[:n*mc]
	clear(d)
	for t := 0; t < n; t++ {
		vals, cix := main.Row(r0 + t)
		row := d[t*mc : (t+1)*mc]
		for k, j := range cix {
			row[j] = vals[k]
		}
	}
	b.Sparse = nil
}

// vec points vector register reg at its arena slot and returns the slot
// (TileRows rows, one for uniform registers).
func (p *RowProgram) vec(b *RowBuf, reg int) []float64 {
	rows := p.TileRows
	if p.VecUniform[reg] {
		rows = 1
	}
	d := b.arena[p.vecOff[reg] : p.vecOff[reg]+rows*p.VecWidths[reg]]
	b.Vec[reg], b.Off[reg] = d, 0
	return d
}

func (p *RowProgram) scal(b *RowBuf, reg int) []float64 {
	rows := p.TileRows
	if p.ScalUniform[reg] {
		rows = 1
	}
	d := b.arena[p.scalOff[reg] : p.scalOff[reg]+rows]
	b.Scal[reg] = d
	return d
}

// Result returns the view of the result register after ExecTile: row t of
// the tile is data[off+t*stride : +OutWidth]. Scalar results are width-1
// rows; a uniform result has stride 0.
func (p *RowProgram) Result(b *RowBuf) (data []float64, off, stride int) {
	if p.ResultVec {
		return b.Vec[p.ResultReg], b.Off[p.ResultReg], p.stride(p.ResultReg)
	}
	return b.Scal[p.ResultReg], 0, sstride(p.ScalUniform[p.ResultReg])
}

// ExecTile runs the program for the n <= TileRows rows starting at input
// row r0. Register 0 must be bound (BindDense to the tile's first row, or
// BindSparse); side inputs are addressed by r0. An instruction is one call
// of a vector kernel per tile wherever the kernel takes a tile: element-wise
// operations (vector.BinaryRows/ScalarRows flatten a tile that is one run of
// cells), row aggregates and products.
func (p *RowProgram) ExecTile(ctx *Ctx, b *RowBuf, r0, n int) {
	first := !b.primed
	b.primed = true
	for i := range p.Instrs {
		in := &p.Instrs[i]
		rows := n
		if in.Uniform {
			if !first {
				continue
			}
			rows = 1
		}
		switch in.Op {
		case RLoadSideRow:
			r := r0
			if in.RowZero {
				r = 0
			}
			sv := ctx.Sides[in.Side]
			if d := sv.dense; d != nil {
				// Dense side: alias the rows instead of copying.
				b.Vec[in.Dst], b.Off[in.Dst] = d, r*sv.cols
				continue
			}
			w := p.VecWidths[in.Dst]
			d := p.vec(b, in.Dst)
			for t := 0; t < rows; t++ {
				sv.DensifyRow(r+t, d[t*w:(t+1)*w])
			}
		case RLoadSideVal:
			sv := ctx.Sides[in.Side]
			if in.RowZero {
				p.scal(b, in.Dst)[0] = sv.Value(0, 0)
				continue
			}
			if d := sv.dense; d != nil && sv.cols == 1 {
				b.Scal[in.Dst] = d[r0 : r0+rows]
				continue
			}
			d := p.scal(b, in.Dst)
			for t := 0; t < rows; t++ {
				d[t] = sv.Value(r0+t, 0)
			}
		case RLit:
			p.scal(b, in.Dst)[0] = in.Scalar
		case RBinVV:
			vector.BinaryRows(in.BinOp.Kernel(), b.Vec[in.Src1], b.Off[in.Src1], p.stride(in.Src1),
				b.Vec[in.Src2], b.Off[in.Src2], p.stride(in.Src2), p.vec(b, in.Dst), 0, rows, p.VecWidths[in.Dst])
		case RBinVS:
			vector.ScalarRows(in.BinOp.Kernel(), false, b.Vec[in.Src1], b.Off[in.Src1], p.stride(in.Src1),
				b.Scal[in.Src2], 0, sstride(p.ScalUniform[in.Src2]), p.vec(b, in.Dst), 0, rows, p.VecWidths[in.Dst])
		case RBinSV:
			vector.ScalarRows(in.BinOp.Kernel(), true, b.Vec[in.Src2], b.Off[in.Src2], p.stride(in.Src2),
				b.Scal[in.Src1], 0, sstride(p.ScalUniform[in.Src1]), p.vec(b, in.Dst), 0, rows, p.VecWidths[in.Dst])
		case RBinSS:
			// Scalar registers are tiles of width 1.
			vector.BinaryRows(in.BinOp.Kernel(), b.Scal[in.Src1], 0, sstride(p.ScalUniform[in.Src1]),
				b.Scal[in.Src2], 0, sstride(p.ScalUniform[in.Src2]), p.scal(b, in.Dst), 0, rows, 1)
		case RUnV:
			// A unary result is uniform exactly when its source is, so the
			// source is always contiguous over the rows computed here.
			in.UnOp.Write(b.Vec[in.Src1], p.vec(b, in.Dst), b.Off[in.Src1], 0, rows*p.VecWidths[in.Dst])
		case RUnS:
			in.UnOp.Write(b.Scal[in.Src1], p.scal(b, in.Dst), 0, 0, rows)
		case RAggV:
			d := p.scal(b, in.Dst)
			if in.Src1 == 0 && b.Sparse != nil {
				// Sparse-safe sums over the non-zero values only.
				for t := 0; t < rows; t++ {
					vals, _ := b.Sparse.Row(r0 + t)
					if in.AggOp == matrix.AggSumSq {
						d[t] = vector.SumSq(vals, 0, len(vals))
					} else {
						d[t] = vector.Sum(vals, 0, len(vals))
					}
				}
				continue
			}
			in.AggOp.Rows(b.Vec[in.Src1], b.Off[in.Src1], p.stride(in.Src1), d, rows, p.VecWidths[in.Src1])
		case RMatMul:
			sm := ctx.Sides[in.Side].m
			bd, k, m := sm.Dense(), sm.Rows, sm.Cols
			d := p.vec(b, in.Dst)
			if in.Src1 == 0 && b.Sparse != nil {
				for t := 0; t < rows; t++ {
					vals, cix := b.Sparse.Row(r0 + t)
					vector.MatMultSparse(vals, cix, bd, d, 0, t*m, m)
				}
				continue
			}
			clear(d[:rows*m])
			vector.MatMultAdd(b.Vec[in.Src1], bd, d, b.Off[in.Src1], p.stride(in.Src1), 0, 0, rows, k, m)
		case RIdxV:
			w := p.VecWidths[in.Dst]
			a, o, st := b.Vec[in.Src1], b.Off[in.Src1]+in.CL, p.stride(in.Src1)
			d := p.vec(b, in.Dst)
			for t := 0; t < rows; t++ {
				copy(d[t*w:(t+1)*w], a[o+t*st:])
			}
		case RCumsumV:
			w := p.VecWidths[in.Dst]
			a, o, st := b.Vec[in.Src1], b.Off[in.Src1], p.stride(in.Src1)
			d := p.vec(b, in.Dst)
			for t := 0; t < rows; t++ {
				vector.CumsumWrite(a, d, o+t*st, t*w, w)
			}
		case RDot:
			d := p.scal(b, in.Dst)
			if b.Sparse != nil && (in.Src1 == 0 || in.Src2 == 0) {
				other := in.Src1 + in.Src2 // the non-main operand (0 for main·main)
				ob, oo, os := b.Vec[other], b.Off[other], p.stride(other)
				for t := 0; t < rows; t++ {
					vals, cix := b.Sparse.Row(r0 + t)
					if other == 0 {
						d[t] = vector.SumSq(vals, 0, len(vals))
					} else {
						d[t] = vector.DotProductSparse(vals, cix, ob, oo+t*os)
					}
				}
				continue
			}
			w := p.VecWidths[in.Src1]
			a1, o1, s1 := b.Vec[in.Src1], b.Off[in.Src1], p.stride(in.Src1)
			a2, o2, s2 := b.Vec[in.Src2], b.Off[in.Src2], p.stride(in.Src2)
			for t := 0; t < rows; t++ {
				d[t] = vector.DotProduct(a1, a2, o1+t*s1, o2+t*s2, w)
			}
		}
	}
}

// sstride is the element stride of a scalar register read across tile rows.
func sstride(uniform bool) int {
	if uniform {
		return 0
	}
	return 1
}

// compileRow lowers the Row-template CNode DAG into a tile program.
func compileRow(p *Plan) *RowProgram {
	c := newLowering(p.MainWidth, false)
	res, ok := c.lower(p.Root)
	if !ok {
		panic("cplan: CNode DAG does not lower to a row program")
	}
	prog := &RowProgram{
		Instrs:      c.instrs,
		VecWidths:   c.vecWidths,
		NumScalars:  len(c.scalUniform),
		MainWidth:   p.MainWidth,
		VecUniform:  c.vecUniform,
		ScalUniform: c.scalUniform,
		RowT:        p.Row,
		OutWidth:    1,
		ResultReg:   res.idx,
		ResultVec:   res.vec,
	}
	if res.vec {
		prog.OutWidth = c.vecWidths[res.idx]
	}
	prog.layout()
	return prog
}
