package cplan

import (
	"math"
	"sync"

	"sysml/internal/matrix"
	"sysml/internal/vector"
)

// RowOpKind identifies one vector instruction of a compiled program.
// Programs are register machines over per-thread tile registers, mirroring
// the generated Java methods that chain vector primitives (paper §2.2, TMP25
// example) but applied to a tile of rows at a time.
type RowOpKind int

// Program instructions. V suffixes denote vector registers, S scalar
// registers.
const (
	RLoadSideRow RowOpKind = iota // vec[dst] = side[Side] row (rix or row 0)
	RLoadSideVal                  // scal[dst] = side[Side].Value(rix,0) or (0,0)
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
	RLoadDot                      // vec[dst] = U_i·V_j per cell (Outer)
	RSplat                        // vec[dst] = scal[src1] per cell
)

// vecDst has the bit of every instruction that writes a vector register.
const vecDst = 1<<RLoadSideRow | 1<<RBinVV | 1<<RBinVS | 1<<RBinSV | 1<<RUnV |
	1<<RMatMul | 1<<RIdxV | 1<<RCumsumV | 1<<RLoadDot | 1<<RSplat

// RowInstr is one instruction of a program.
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
	// (set by the lowering, see Program.VecUniform).
	Uniform bool
}

// Program is the body of one root of a fused operator — a Row plan, a Cell or
// Outer plan, or one output of a MAgg or Horizontal plan: the root's CNode
// DAG lowered to a straight-line vector program that runs once per tile of
// the main input, rows [i, i+n) × columns [c, c+w). It stands in for the
// machine code a JIT produces from the genexec body; Go cannot JIT, so the
// vectorization is made explicit. Vector registers hold one row of the tile
// per tile row and scalar registers one value, so the instruction dispatch
// is paid per tile, not per row. A Row body takes whole rows, its registers
// have the widths it was compiled with; the registers of a cell body are as
// wide as the tile, whatever column range of main that is. The body is the
// same whatever the inputs look like: where register 0 and the side loads of
// a tile come from is the binding's business (BindMain, Buf).
type Program struct {
	Instrs     []RowInstr
	VecWidths  []int // width per vector register, 0: the tile's; register 0 is the main input
	NumScalars int
	MainWidth  int // Row bodies: the width of main, whose rows are taken whole; 0 for cell bodies

	// VecUniform and ScalUniform mark registers that hold the same value
	// for every row (literals, scalar and row-vector sides, and whatever
	// is computed from those alone). They are evaluated once per bound
	// buffer and column range, keep a single row, and enter tile operations
	// as broadcasts (stride 0).
	VecUniform  []bool
	ScalUniform []bool

	// Kind says what the skeleton does with the result rows of a tile: keep
	// them (NoAgg; OutWidth cells per row, 0: as many as main has), fold each
	// into one value (RowAgg), fold them into column partials (ColAgg; with
	// T into t(main) %*% result, the Row template's COL_AGG_B1_T) or into
	// one partial (FullAgg), by Agg: sum, min or max. The result of a tile
	// row is register ResultReg, a vector (ResultVec) or a scalar; with
	// DotReg >= 0 the folded value of a cell is vec[ResultReg]·vec[DotReg],
	// a sum over a product that is never written out.
	Kind      CellType
	Agg       matrix.AggOp
	T         bool
	OutWidth  int
	ResultReg int
	ResultVec bool
	DotReg    int

	// bufPool recycles the register views across invocations of this
	// operator (the arena comes from the caller's buffer pool).
	bufPool sync.Pool
}

// Tile sizing, for every program whatever template it came from: what an
// instruction writes should still be in the core's L1 data cache (48 KiB on
// the reference host) when a later one reads it, and every register of the
// step — views of the inputs included, which stream through the same cache —
// is touched in between, so the registers of one step share tileBytes; a
// program that writes none has nothing to keep and is bounded by
// tileMaxCells, the cells of main per step that let the roots of a
// multi-output operator find their shared tile in the cache; a Row body,
// which cannot split a row, takes at least tileMinRows of them to amortize
// its dispatch and the side an RMatMul streams against.
const (
	tileBytes    = 32 << 10
	tileMinRows  = 8
	tileMaxCells = 8192
)

// uniform reports whether in runs once per buffer rather than per step:
// under MainNnz, where the rows are cells and a row side differs from one to
// the next, only scalar instructions do.
func uniform(in *RowInstr, bind MainBinding) bool {
	return in.Uniform && !(bind == MainNnz && vecDst>>in.Op&1 != 0)
}

// TileSize sizes the steps of the program over a main input w cells wide from
// the bytes one tile row occupies across all per-row registers: rows whole
// rows, or — a cell body whose rows are wider than the budget — cols columns
// of one row at a time. Under MainNnz a row is one stored cell.
func (p *Program) TileSize(w int, bind MainBinding) (rows, cols int) {
	if bind == MainNnz {
		w = 1
	}
	perRow, regs := 0, 0
	for i, vw := range p.VecWidths {
		if p.VecUniform[i] && bind != MainNnz {
			continue
		}
		if vw == 0 {
			vw, regs = w, regs+1
		}
		perRow += vw
	}
	for _, u := range p.ScalUniform {
		if !u {
			perRow++
		}
	}
	// Gathers and a densified register 0 are written; loads of dense
	// inputs are views.
	writes := bind == MainNnz || bind == MainDensified
	for i := range p.Instrs {
		in := &p.Instrs[i]
		writes = writes || in.Op != RLoadSideRow && in.Op != RLoadSideVal && !uniform(in, bind)
	}
	rows = max(tileMaxCells/w, 1)
	if writes {
		rows = min(rows, tileBytes/8/perRow)
	}
	switch {
	case p.MainWidth > 0:
		return max(rows, tileMinRows), w
	case rows == 0:
		return 1, tileBytes / 8 / regs
	}
	return rows, w
}

// MainSparseCapable reports whether the program can execute directly over
// sparse main rows (the genexecSparse path): register 0 may only feed
// sparse-safe consumers — inner matrix products and sum aggregates — plus
// the ColAgg T accumulation handled by the skeleton.
func (p *Program) MainSparseCapable() bool {
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
			uses0 = in.Src1 == 0 && in.AggOp != matrix.AggSum && in.AggOp != matrix.AggSumSq
		}
		if uses0 {
			return false
		}
	}
	// The result itself must not be the raw main row.
	return !(p.ResultVec && p.ResultReg == 0) && p.DotReg != 0
}

// MainBinding says how register 0 of a program is bound to the main input.
type MainBinding int

// The bindings of register 0.
const (
	MainView      MainBinding = iota // dense main: a view of the tile's cells
	MainNnz                          // the stored cells of a sparse main as rows of one cell each
	MainCSR                          // the CSR rows of a sparse main, read by the gather kernels
	MainDensified                    // the tile of a sparse main written out densely
)

// BindMain chooses how every root of an operator binds register 0, from what
// it can observe: a dense main is viewed; a sparse one is iterated by its
// stored cells where that is all the roots need (sparseSafe: a zero of main
// makes every body zero; cell bodies, which take any span of cells; sums,
// for min and max must see the implicit zeros); else a root whose every
// consumer of register 0 has a gather kernel reads the CSR rows; else the
// tile is densified.
func BindMain(sparseSafe bool, progs []*Program, main *matrix.Matrix) []MainBinding {
	binds := make([]MainBinding, len(progs))
	if !main.IsSparse() {
		return binds
	}
	for _, p := range progs {
		sparseSafe = sparseSafe && p.MainWidth == 0 && !p.T && (p.Kind == CellNoAgg || p.Agg == matrix.AggSum)
	}
	for q, p := range progs {
		switch {
		case sparseSafe:
			binds[q] = MainNnz
		case p.MainSparseCapable():
			binds[q] = MainCSR
		default:
			binds[q] = MainDensified
		}
	}
	return binds
}

// Buf is one worker's registers of one program (paper: "memory for row
// intermediates is managed via a preallocated ring buffer per thread") and
// the tile its next Exec runs over. Row t of vector register r is
// Vec[r][Off[r]+t*Str[r]:]: register 0 aliases the main tile, loads of
// dense sides alias the side's rows (Str 0: one row for all), everything
// else points into the arena.
type Buf struct {
	Vec      [][]float64
	Off, Str []int
	Scal     [][]float64 // one value per tile row; uniform registers use [0]

	// The tile: rows [I, I+N) × columns [C, C+W) of main; under MainNnz its
	// stored cells [K0, K0+N), rows of one cell (W 1) that lie in main rows
	// [I, I+NR).
	I, N, C, W int
	K0, NR     int

	// Bind is how register 0 is loaded, from Dense (Cols values per row) or
	// CSR. Filled records that some load wrote a register it could not view.
	Bind   MainBinding
	Dense  []float64
	Cols   int
	CSR    *matrix.CSR
	Filled bool
	// Direct reports that the last Exec wrote the result rows into the
	// destination it was given.
	Direct bool

	prog            *Program
	arena, out      []float64
	vecOff, scalOff []int
	primed          bool // uniform instructions have run for the current column range
}

// GetBuf returns registers for tiles of up to rows × cols cells of main under
// bind, recycling the views from the per-program pool; alloc supplies the
// arena (contents arbitrary), which has a slot for every register — a load
// that cannot view its input writes its own. Arenas are at least tileBytes
// large, so most programs share one size class of the buffer pool.
func (p *Program) GetBuf(bind MainBinding, main *matrix.Matrix, rows, cols int, alloc func(n int) []float64) *Buf {
	b, ok := p.bufPool.Get().(*Buf)
	if !ok {
		nv := len(p.VecWidths)
		b = &Buf{prog: p, Vec: make([][]float64, nv), Off: make([]int, nv), Str: make([]int, nv),
			Scal: make([][]float64, p.NumScalars), vecOff: make([]int, nv), scalOff: make([]int, p.NumScalars)}
	}
	off := 0
	for i, w := range p.VecWidths {
		if w == 0 {
			w = cols
		}
		b.vecOff[i] = off
		if !p.VecUniform[i] || bind == MainNnz {
			w *= rows
		}
		off += w
	}
	for i, u := range p.ScalUniform {
		b.scalOff[i] = off
		if u {
			off++
		} else {
			off += rows
		}
	}
	b.arena, b.Bind, b.W = alloc(max(off, tileBytes/8)), bind, -1
	if main != nil {
		b.Dense, b.Cols, b.CSR = main.Dense(), main.Cols, main.Sparse()
	}
	return b
}

// PutBuf parks the register views for reuse and hands the arena back.
// Views are cleared first so the pool does not pin input matrices.
func (p *Program) PutBuf(b *Buf) (arena []float64) {
	arena = b.arena
	clear(b.Vec)
	clear(b.Scal)
	b.arena, b.out, b.Dense, b.CSR, b.primed, b.Filled = nil, nil, nil, nil, false, false
	p.bufPool.Put(b)
	return arena
}

// Tile sets the next step to rows [i, i+n) × columns [c, c+w) of main and
// binds register 0 to it (under MainCSR the instructions read the rows).
func (b *Buf) Tile(i, n, c, w int) {
	if c != b.C || w != b.W {
		b.primed = false // uniform registers hold their column range
	}
	b.I, b.N, b.C, b.W = i, n, c, w
	switch b.Bind {
	case MainView:
		b.Vec[0], b.Off[0], b.Str[0] = b.Dense, i*b.Cols+c, b.Cols
	case MainDensified:
		d := b.arena[b.vecOff[0]:]
		densify(b.CSR, i, n, c, w, d)
		b.Vec[0], b.Off[0], b.Str[0], b.Filled = d, 0, w, true
	}
}

// Span sets the next step to the stored cells [k0, k1) of main, which lie in
// rows from i on: n rows of one cell, register 0 a view of the CSR values.
func (b *Buf) Span(i, k0, k1 int) {
	rp := b.CSR.RowPtr
	for rp[i+1] <= k0 {
		i++
	}
	nr := 1
	for rp[i+nr] < k1 {
		nr++
	}
	b.I, b.NR, b.K0, b.N, b.C, b.W = i, nr, k0, k1-k0, 0, 1
	b.Vec[0], b.Off[0], b.Str[0] = b.CSR.Values, k0, 1
}

// Seg returns the stored cells of main row i that lie in the span.
func (b *Buf) Seg(i int) (lo, hi int) {
	return max(b.CSR.RowPtr[i], b.K0), min(b.CSR.RowPtr[i+1], b.K0+b.N)
}

// width is the width of vector register reg at the current tile.
func (b *Buf) width(reg int) int {
	if w := b.prog.VecWidths[reg]; w > 0 {
		return w
	}
	return b.W
}

// vec points vector register reg at the storage its instruction writes — the
// destination of the step for the result register, its arena slot (all tile
// rows, one for a uniform register) otherwise — and returns it.
func (b *Buf) vec(reg int) []float64 {
	p, w := b.prog, b.width(reg)
	d, str := b.arena[b.vecOff[reg]:], w
	if p.VecUniform[reg] && b.Bind != MainNnz {
		str = 0
	} else if reg == p.ResultReg && p.ResultVec && b.out != nil {
		d, b.Direct = b.out, true
	}
	b.Vec[reg], b.Off[reg], b.Str[reg] = d, 0, str
	return d
}

func (b *Buf) scal(reg int) []float64 {
	p := b.prog
	d := b.arena[b.scalOff[reg]:]
	if reg == p.ResultReg && !p.ResultVec && b.out != nil && !p.ScalUniform[reg] {
		d, b.Direct = b.out, true
	}
	b.Scal[reg] = d
	return d
}

// Result returns the view of the result register after Exec: row t of the
// tile is data[off+t*stride:][:w]. Scalar results are rows of one cell; a
// uniform result has stride 0.
func (p *Program) Result(b *Buf) (data []float64, off, stride, w int) {
	if r := p.ResultReg; p.ResultVec {
		return b.Vec[r], b.Off[r], b.Str[r], b.width(r)
	}
	return b.Scal[p.ResultReg], 0, sstride(p.ScalUniform[p.ResultReg]), 1
}

// OutCols is the number of cells of a result row over a main input of cols
// columns.
func (p *Program) OutCols(cols int) int {
	if p.OutWidth > 0 {
		return p.OutWidth
	}
	return cols
}

// densify writes rows [i, i+n) × columns [c, c+w) of a CSR matrix to dst.
func densify(csr *matrix.CSR, i, n, c, w int, dst []float64) {
	clear(dst[:n*w])
	for t := 0; t < n; t++ {
		vals, cix := csr.Row(i + t)
		row := dst[t*w : (t+1)*w]
		for k, j := range cix {
			if uint(j-c) < uint(w) {
				row[j-c] = vals[k]
			}
		}
	}
}

// gather writes to dst the value of a side at every stored cell of the span,
// the side's element for cell (i, j) being (i*ri, j*cj) — ri and cj 0 or 1:
// a column side is (i, 0), a row side (0, j). It is what is left of filling
// registers: a dense side of a dense tile is a view whatever its shape.
func (b *Buf) gather(sv *SideView, ri, cj int, dst []float64) {
	b.Filled = true
	for i := b.I; i < b.I+b.NR; i++ {
		lo, hi := b.Seg(i)
		out, cix := dst[lo-b.K0:hi-b.K0], b.CSR.ColIdx[lo:hi]
		switch d := sv.dense; {
		case d == nil: // a sparse side read cell by cell: the row cursor
			for k, j := range cix {
				out[k] = sv.Value(i*ri, j*cj)
			}
		case cj == 0:
			vector.Fill(out, d[i*ri*sv.cols], 0, len(out))
		default:
			row := d[i*ri*sv.cols:]
			for k, j := range cix {
				out[k] = row[j]
			}
		}
	}
}

// dots writes U_i·V_j for every cell of the tile to dst.
func (b *Buf) dots(ctx *Ctx, dst []float64) {
	b.Filled = true
	u, v, r := ctx.U, ctx.V, ctx.Rank
	if b.Bind != MainNnz {
		for k := range dst[:b.N*b.W] {
			dst[k] = vector.DotProduct(u, v, (b.I+k/b.W)*r, (b.C+k%b.W)*r, r)
		}
		return
	}
	for i := b.I; i < b.I+b.NR; i++ {
		lo, hi := b.Seg(i)
		out := dst[lo-b.K0 : hi-b.K0]
		for k, j := range b.CSR.ColIdx[lo:hi] {
			out[k] = vector.DotProduct(u, v, i*r, j*r, r)
		}
	}
}

// uniformRan, when set (by tests), is told every uniform instruction that
// executes.
var uniformRan func(in *RowInstr)

// Exec runs the program over the tile b is set to (Tile, Span) and leaves
// the result rows in the result register (Result) — or in out, where the
// skeleton has the rows of the tile back to back in its output and the
// register is written by an instruction rather than viewed (b.Direct). It
// is the one interpreter of fused bodies. An instruction is one call of a
// vector kernel per tile wherever the kernel takes a tile: element-wise
// operations (vector.BinaryRows/ScalarRows flatten a tile that is one run
// of cells), row aggregates and products. Uniform instructions run once per
// buffer and column range, but under MainNnz, where the rows are cells and
// a row side differs from one to the next.
func (p *Program) Exec(ctx *Ctx, b *Buf, out []float64) {
	first, nnz := !b.primed, b.Bind == MainNnz
	b.primed, b.out, b.Direct = true, out, false
	for i := range p.Instrs {
		in := &p.Instrs[i]
		rows := b.N
		if uniform(in, b.Bind) {
			if !first {
				continue
			}
			if uniformRan != nil {
				uniformRan(in)
			}
			rows = 1
		}
		switch in.Op {
		case RLoadSideRow:
			sv := ctx.Sides[in.Side]
			switch {
			case nnz && in.RowZero:
				b.gather(sv, 0, 1, b.vec(in.Dst))
			case nnz:
				b.gather(sv, 1, 1, b.vec(in.Dst))
			case sv.dense == nil: // a sparse side: the rows of the tile, densified
				densify(sv.m.Sparse(), b.I, rows, b.C, b.width(in.Dst), b.vec(in.Dst))
				b.Filled = true
			case in.RowZero: // one row for every tile row
				b.Vec[in.Dst], b.Off[in.Dst], b.Str[in.Dst] = sv.dense, b.C, 0
			default: // alias the rows instead of copying
				b.Vec[in.Dst], b.Off[in.Dst], b.Str[in.Dst] = sv.dense, b.I*sv.cols+b.C, sv.cols
			}
		case RLoadSideVal:
			sv := ctx.Sides[in.Side]
			switch {
			case in.RowZero:
				b.scal(in.Dst)[0] = ctx.SideScalars[in.Side]
			case nnz:
				b.gather(sv, 1, 0, b.scal(in.Dst))
			case sv.dense != nil && sv.cols == 1: // a column vector is its own register
				b.Scal[in.Dst] = sv.dense[b.I : b.I+rows]
			default:
				d := b.scal(in.Dst)
				for t := range d[:rows] {
					d[t] = sv.Value(b.I+t, 0)
				}
			}
		case RLoadDot:
			b.dots(ctx, b.vec(in.Dst))
		case RLit:
			b.scal(in.Dst)[0] = in.Scalar
		case RSplat:
			d, w, s, ss := b.vec(in.Dst), b.width(in.Dst), b.Scal[in.Src1], sstride(p.ScalUniform[in.Src1])
			for t := 0; t < rows; t++ {
				vector.Fill(d, s[t*ss], t*w, w)
			}
		case RBinVV:
			vector.BinaryRows(in.BinOp.Kernel(), b.Vec[in.Src1], b.Off[in.Src1], b.Str[in.Src1],
				b.Vec[in.Src2], b.Off[in.Src2], b.Str[in.Src2], b.vec(in.Dst), 0, rows, b.width(in.Dst))
		case RBinVS:
			vector.ScalarRows(in.BinOp.Kernel(), false, b.Vec[in.Src1], b.Off[in.Src1], b.Str[in.Src1],
				b.Scal[in.Src2], 0, sstride(p.ScalUniform[in.Src2]), b.vec(in.Dst), 0, rows, b.width(in.Dst))
		case RBinSV:
			vector.ScalarRows(in.BinOp.Kernel(), true, b.Vec[in.Src2], b.Off[in.Src2], b.Str[in.Src2],
				b.Scal[in.Src1], 0, sstride(p.ScalUniform[in.Src1]), b.vec(in.Dst), 0, rows, b.width(in.Dst))
		case RBinSS:
			// Scalar registers are tiles of width 1.
			vector.BinaryRows(in.BinOp.Kernel(), b.Scal[in.Src1], 0, sstride(p.ScalUniform[in.Src1]),
				b.Scal[in.Src2], 0, sstride(p.ScalUniform[in.Src2]), b.scal(in.Dst), 0, rows, 1)
		case RUnV:
			w, a, ao, as := b.width(in.Dst), b.Vec[in.Src1], b.Off[in.Src1], b.Str[in.Src1]
			d := b.vec(in.Dst)
			if as == w || rows == 1 {
				in.UnOp.Write(a, d, ao, 0, rows*w)
				continue
			}
			for t := 0; t < rows; t++ { // a view of wider rows
				in.UnOp.Write(a, d, ao+t*as, t*w, w)
			}
		case RUnS:
			in.UnOp.Write(b.Scal[in.Src1], b.scal(in.Dst), 0, 0, rows)
		case RAggV:
			d := b.scal(in.Dst)
			if in.Src1 == 0 && b.Bind == MainCSR {
				// Sparse-safe sums over the non-zero values only.
				for t := 0; t < rows; t++ {
					vals, _ := b.CSR.Row(b.I + t)
					if in.AggOp == matrix.AggSumSq {
						d[t] = vector.SumSq(vals, 0, len(vals))
					} else {
						d[t] = vector.Sum(vals, 0, len(vals))
					}
				}
				continue
			}
			in.AggOp.Rows(b.Vec[in.Src1], b.Off[in.Src1], b.Str[in.Src1], d, rows, b.width(in.Src1))
		case RMatMul:
			sm := ctx.Sides[in.Side].m
			bd, k, m := sm.Dense(), sm.Rows, sm.Cols
			d := b.vec(in.Dst)
			if in.Src1 == 0 && b.Bind == MainCSR {
				for t := 0; t < rows; t++ {
					vals, cix := b.CSR.Row(b.I + t)
					vector.MatMultSparse(vals, cix, bd, d, 0, t*m, m)
				}
				continue
			}
			clear(d[:rows*m])
			vector.MatMultAdd(b.Vec[in.Src1], bd, d, b.Off[in.Src1], b.Str[in.Src1], 0, 0, rows, k, m)
		case RIdxV:
			w := p.VecWidths[in.Dst]
			a, o, st := b.Vec[in.Src1], b.Off[in.Src1]+in.CL, b.Str[in.Src1]
			d := b.vec(in.Dst)
			for t := 0; t < rows; t++ {
				copy(d[t*w:(t+1)*w], a[o+t*st:])
			}
		case RCumsumV:
			w := p.VecWidths[in.Dst]
			a, o, st := b.Vec[in.Src1], b.Off[in.Src1], b.Str[in.Src1]
			d := b.vec(in.Dst)
			for t := 0; t < rows; t++ {
				vector.CumsumWrite(a, d, o+t*st, t*w, w)
			}
		case RDot:
			d := b.scal(in.Dst)
			if b.Bind == MainCSR && (in.Src1 == 0 || in.Src2 == 0) {
				other := in.Src1 + in.Src2 // the non-main operand (0 for main·main)
				ob, oo, os := b.Vec[other], b.Off[other], b.Str[other]
				for t := 0; t < rows; t++ {
					vals, cix := b.CSR.Row(b.I + t)
					if other == 0 {
						d[t] = vector.SumSq(vals, 0, len(vals))
					} else {
						d[t] = vector.DotProductSparse(vals, cix, ob, oo+t*os)
					}
				}
				continue
			}
			w := p.VecWidths[in.Src1]
			a1, o1, s1 := b.Vec[in.Src1], b.Off[in.Src1], b.Str[in.Src1]
			a2, o2, s2 := b.Vec[in.Src2], b.Off[in.Src2], b.Str[in.Src2]
			if s2 == 0 { // against one vector for all rows: a matrix-vector product
				vector.DotRows(a1, a2, d, o1, s1, o2, rows, w)
				continue
			}
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

// compileRow lowers the Row-template CNode DAG into a program: the sums of a
// full or column aggregate — min and max where the plan names them — fold the
// result rows, which the other variants keep.
func compileRow(p *Plan) *Program {
	c := newLowering(p.MainWidth)
	res, ok := c.lower(p.Root)
	if !ok {
		panic("cplan: CNode DAG does not lower to a row program")
	}
	prog := c.program(res, CellNoAgg, p.AggOp)
	prog.MainWidth = p.MainWidth
	switch p.Row {
	case RowColAgg, RowColAggT:
		prog.Kind, prog.T = CellColAgg, p.Row == RowColAggT
	case RowFullAgg:
		prog.Kind = CellFullAgg
	}
	return prog
}

// CompileCell lowers a cell root with its output kind and aggregation
// function. A body without a vector leaf (a constant) yields its scalar once
// per visited cell; the sum of a product or of squares along rows or over
// all cells folds the factors without writing the product.
func CompileCell(root *CNode, kind CellType, agg matrix.AggOp) *Program {
	c := newLowering(0)
	folds := kind == CellRowAgg || kind == CellFullAgg
	res, dot, ok := regRef{}, regRef{idx: -1}, false
	if folds && agg == matrix.AggSum {
		res, dot, ok = c.factors(root)
	}
	if !ok {
		if res, ok = c.lower(root); !ok {
			panic("cplan: CNode DAG does not lower to a cell program")
		}
		res, dot = c.perCell(res), regRef{idx: -1}
	}
	if agg == matrix.AggSumSq {
		if agg = matrix.AggSum; folds {
			dot = res
		} else if kind == CellColAgg {
			res = c.emit(RowInstr{Op: RBinVV, BinOp: matrix.BinMul, Src1: res.idx, Src2: res.idx}, true, 0)
		}
	}
	prog := c.program(res, kind, agg)
	prog.DotReg = dot.idx
	if kind == CellRowAgg {
		prog.OutWidth = 1
	}
	return prog
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
		return vector.Min2(acc, partial)
	case matrix.AggMax:
		return vector.Max2(acc, partial)
	}
	return acc + partial
}
