package cplan

import (
	"math"
	"sync"

	"sysml/internal/matrix"
	"sysml/internal/vector"
)

// CellVecProgram is the body of one cell-bound root — a Cell or Outer plan,
// or one output of a MAgg or Horizontal plan: the root's CNode DAG lowered to
// the register program Row bodies use, run over spans of cells with the
// shared vector primitives, the root's aggregation included. It stands in for
// the machine code a JIT produces from the scalar genexec body — Go cannot
// JIT, so the vectorization is made explicit. The body is the same whatever
// the inputs look like: where the leaf registers of a span come from — the
// main input, a side of any access, the Outer dot — is the binding's business
// (Cells).
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
	// ResultReg holds the body's value per cell (NoAgg, ColAgg); leaf marks
	// a result that is a leaf register instead of being written by the body.
	ResultReg int
	leaf      bool

	// FlatSides lists the sides read cell by cell; Bcast marks a body that
	// reads a row or column side or the Outer dot, whose registers are
	// always filled (see Views).
	FlatSides []int
	Bcast     bool

	// writes marks a body that writes registers: it runs ChunkLen cells per
	// step so that they (4 KiB each) stay in the L1 cache. A body that only
	// views its inputs takes the whole span at once.
	writes bool

	// bufPool recycles registers across invocations (see RowProgram.GetBuf).
	bufPool sync.Pool
}

// ChunkLen is the number of cells per step of a body that writes registers.
const ChunkLen = 512

// CompileCellVec lowers a cell root with its output kind and aggregation
// function. A body without a vector leaf (a constant) yields its scalar once
// per visited cell.
func CompileCellVec(root *CNode, kind CellType, agg matrix.AggOp) *CellVecProgram {
	c := newLowering(0, true)
	p := &CellVecProgram{Kind: kind, Agg: agg}
	if kind == CellRowAgg || kind == CellFullAgg {
		if _, ok := c.reduce(agg, root); !ok {
			panic("cplan: CNode DAG does not lower to a cell program")
		}
		last := len(c.instrs) - 1
		p.Red, c.instrs = c.instrs[last], c.instrs[:last]
	} else {
		res, ok := c.lower(root)
		if !ok {
			panic("cplan: CNode DAG does not lower to a cell program")
		}
		res = c.perCell(res)
		if kind == CellColAgg && agg == matrix.AggSumSq {
			res = c.emit(RowInstr{Op: RBinVV, BinOp: matrix.BinMul, Src1: res.idx, Src2: res.idx}, true, 0)
			p.Agg = matrix.AggSum
		}
		p.ResultReg = res.idx
		p.leaf = root.Kind == NodeMain || root.Kind == NodeSide || root.Kind == NodeDot
	}
	p.Instrs, p.NumVec, p.NumScalars = c.instrs, len(c.vecWidths), len(c.scalUniform)
	p.FlatSides, p.Bcast = c.flatSides, c.bcast > 0
	// Every vector register but the leaves is written by an instruction.
	p.writes = p.NumVec > 1+len(c.flatSides)+c.bcast
	return p
}

// CellVecBuf holds per-thread registers: views (leaf registers alias their
// inputs where the binding allows) over owned ChunkLen-sized storage,
// allocated when an instruction or a binding first writes the register.
type CellVecBuf struct {
	vec  [][]float64
	off  []int
	scal []float64
	own  [][]float64
	tmp  []float64 // see Scratch
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

// Scratch returns n values of storage recycled with the registers: the
// products of a count-weighted sum, or a tile's values for the skeleton's sink.
func (b *CellVecBuf) Scratch(n int) []float64 {
	if cap(b.tmp) < n {
		b.tmp = make([]float64, n)
	}
	return b.tmp[:n]
}

// reg returns the owned storage of a vector register.
func (b *CellVecBuf) reg(r int) []float64 {
	if b.own[r] == nil {
		b.own[r] = make([]float64, ChunkLen)
	}
	return b.own[r]
}

// Views reports whether every leaf register of the program can alias its
// input at flat offsets: a dense main and dense, exactly main-shaped sides
// read cell by cell.
func (p *CellVecProgram) Views(s *Cells) bool {
	if p.Bcast || s.Main.IsSparse() {
		return false
	}
	for _, si := range p.FlatSides {
		m := s.Ctx.Sides[si].m
		if m.IsSparse() || m.Rows != s.Main.Rows || m.Cols != s.Main.Cols {
			return false
		}
	}
	return true
}

// Exec runs the program over the rows×w cells of main rows [i0, i0+rows), a
// step at a time, and steers the result by output kind:
//
//	NoAgg    dst[k] = f(cell k), k < rows·w
//	RowAgg   dst[t] = agg over row t
//	ColAgg   dst[j] = merge(dst[j], agg over column j), j < w
//	FullAgg  dst[0] = merge(dst[0], agg over all cells)
//
// The folding kinds accumulate across calls into partials the caller
// initialized with AggInit. With wts set, cell k of the rows×w block stands
// for wts[k] equal cells in the aggregates (a dictionary value and the
// occurrence count of its tuple).
func (p *CellVecProgram) Exec(s *Cells, b *CellVecBuf, i0, rows int, dst, wts []float64) {
	w, step := s.Main.Cols, ChunkLen
	if s.Flat {
		if !p.writes {
			step = math.MaxInt
		}
		if p.Kind == CellNoAgg || p.Kind == CellFullAgg {
			rows, w = 1, rows*w // position-independent: one flat span from row i0 on
		}
	}
	// A step covers br whole rows, or at most step columns of one row.
	cw, br := min(w, step), max(step/w, 1)
	for t0 := 0; t0 < rows; t0 += br {
		nr := min(br, rows-t0)
		for c0 := 0; c0 < w; c0 += cw {
			nc := min(cw, w-c0)
			s.i, s.nr, s.c, s.nc = i0+t0, nr, c0, nc
			o, n := t0*w+c0, nr*nc
			if p.Kind == CellNoAgg {
				p.body(s, b, n, dst[o:o+n])
				continue
			}
			p.body(s, b, n, nil)
			if p.Kind == CellColAgg {
				foldCols(p.Agg, b.vec[p.ResultReg], b.off[p.ResultReg], nr, nc, dst[c0:], wts, o, w)
				continue
			}
			for t := 0; t < nr; t++ {
				v, k := p.reduce(b, t*nc, nc, wts, o+t*w), t0+t
				if p.Kind == CellFullAgg {
					k = 0
				}
				if p.Kind == CellFullAgg || c0 > 0 {
					v = AggMerge(p.Agg, dst[k], v)
				}
				dst[k] = v
			}
		}
	}
}

// ExecNnz runs the program over the stored cells of main rows [i0, i1) — the
// nnz binding of a sparse-safe body, whose aggregates are sums:
//
//	NoAgg    dst[k] = f(k-th stored cell of the rows), main's pattern kept
//	RowAgg   dst[t] = sum over the stored cells of row i0+t
//	ColAgg   dst[j] += the values of column j
//	FullAgg  dst[0] += the values
//
// A step is as many whole rows as fit ChunkLen cells, or ChunkLen cells of
// a longer row.
func (p *CellVecProgram) ExecNnz(s *Cells, b *CellVecBuf, i0, i1 int, dst []float64) {
	csr := s.Main.Sparse()
	rp := csr.RowPtr
	step := ChunkLen
	if !p.writes && !p.Bcast && len(p.FlatSides) == 0 {
		step = len(csr.Values) + 1 // register 0 alone, a view of the values
	}
	if p.Kind == CellRowAgg {
		clear(dst[:i1-i0])
	}
	i := i0
	for k0 := rp[i0]; k0 < rp[i1]; {
		for rp[i+1] <= k0 {
			i++
		}
		j, k1 := i+1, min(rp[i+1], k0+step)
		for j < i1 && rp[j+1]-k0 <= step {
			j++
			k1 = rp[j]
		}
		s.i, s.nr, s.k0, s.k1 = i, j-i, k0, k1
		var out []float64
		if p.Kind == CellNoAgg {
			out = dst[k0-rp[i0] : k1-rp[i0]]
		}
		p.body(s, b, k1-k0, out)
		switch p.Kind {
		case CellColAgg:
			r := b.vec[p.ResultReg][b.off[p.ResultReg]:]
			for k, c := range csr.ColIdx[k0:k1] {
				dst[c] += r[k]
			}
		case CellFullAgg:
			dst[0] += p.reduce(b, 0, k1-k0, nil, 0)
		case CellRowAgg:
			for t, o := 0, 0; t < s.nr; t++ {
				_, m := s.seg(t)
				dst[i+t-i0] += p.reduce(b, o, m, nil, 0)
				o += m
			}
		}
		k0 = k1
	}
}

// body evaluates the instructions over the n cells of the span s is set to.
// With out set, the result register is written there instead of into its
// own storage. It is the one interpreter of cell bodies: a binding loads
// leaf registers (Cells.sparseMain, side, dots) and never looks at an operation.
func (p *CellVecProgram) body(s *Cells, b *CellVecBuf, n int, out []float64) {
	b.vec[0], b.off[0] = s.Main.Dense(), s.i*s.Main.Cols+s.c // a dense main is a view under every binding
	if s.Main.IsSparse() {
		b.vec[0], b.off[0] = s.sparseMain(b)
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch in.Op {
		case RLoadSideRow: // a side read cell by cell, or a row side (RowZero)
			sv := s.Ctx.Sides[in.Side]
			ri := sv.cols
			if s.Flat { // a view at the span's flat offset, without a call
				b.vec[in.Dst], b.off[in.Dst] = sv.dense, s.i*ri+s.c
				continue
			}
			if in.RowZero {
				ri = 0
			}
			b.vec[in.Dst], b.off[in.Dst] = s.side(sv, ri, 1, b, in.Dst)
		case RLoadSideVal:
			if in.RowZero {
				b.scal[in.Dst] = s.Ctx.SideScalars[in.Side]
				continue
			}
			b.vec[in.Dst], b.off[in.Dst] = s.side(s.Ctx.Sides[in.Side], 1, 0, b, in.Dst) // a column side
		case RLoadDot:
			b.vec[in.Dst], b.off[in.Dst] = s.dots(b.reg(in.Dst)), 0
		case RLit:
			b.scal[in.Dst] = in.Scalar
		case RSplat:
			vector.Fill(p.dst(b, in.Dst, out), b.scal[in.Src1], 0, n)
		case RBinVV:
			vector.Binary(in.BinOp.Kernel(), b.vec[in.Src1], b.vec[in.Src2], p.dst(b, in.Dst, out), b.off[in.Src1], b.off[in.Src2], 0, n)
		case RBinVS:
			vector.Scalar(in.BinOp.Kernel(), false, b.vec[in.Src1], b.scal[in.Src2], p.dst(b, in.Dst, out), b.off[in.Src1], 0, n)
		case RBinSV:
			vector.Scalar(in.BinOp.Kernel(), true, b.vec[in.Src2], b.scal[in.Src1], p.dst(b, in.Dst, out), b.off[in.Src2], 0, n)
		case RBinSS:
			b.scal[in.Dst] = in.BinOp.Apply(b.scal[in.Src1], b.scal[in.Src2])
		case RUnV:
			in.UnOp.Write(b.vec[in.Src1], p.dst(b, in.Dst, out), b.off[in.Src1], 0, n)
		case RUnS:
			b.scal[in.Dst] = in.UnOp.Apply(b.scal[in.Src1])
		}
	}
	if out != nil && p.leaf {
		copy(out, b.vec[p.ResultReg][b.off[p.ResultReg]:][:n])
	}
}

// dst points vector register reg at the storage its instruction writes —
// out for the result register, its own otherwise — and returns it.
func (p *CellVecProgram) dst(b *CellVecBuf, reg int, out []float64) []float64 {
	d := out
	if d == nil || reg != p.ResultReg {
		d = b.reg(reg)
	}
	b.vec[reg], b.off[reg] = d, 0
	return d
}

// reduce applies Red to the n cells at offset o of the current step. With
// wts, cell k counts wts[wo+k] times: sums — the one count-weighted fold of
// the dictionary binding — become the dot product of the summed values (the
// products or squares, written out first) with the counts, and a minimum or
// maximum does not care how often it occurs.
func (p *CellVecProgram) reduce(b *CellVecBuf, o, n int, wts []float64, wo int) float64 {
	a, ao := b.vec[p.Red.Src1], b.off[p.Red.Src1]+o
	switch p.Agg {
	case matrix.AggMin:
		return vector.Min(a, ao, n)
	case matrix.AggMax:
		return vector.Max(a, ao, n)
	}
	y, yo := a, ao
	if p.Red.Op == RDot {
		y, yo = b.vec[p.Red.Src2], b.off[p.Red.Src2]+o
	}
	switch product := p.Red.Op == RDot || p.Agg == matrix.AggSumSq; {
	case wts != nil && product:
		t := b.Scratch(n)
		vector.Binary(vector.OpMul, a, y, t, ao, yo, 0, n)
		return vector.DotProduct(t, wts, 0, wo, n)
	case wts != nil:
		return vector.DotProduct(a, wts, ao, wo, n)
	case product:
		return vector.DotProduct(a, y, ao, yo, n)
	}
	return vector.Sum(a, ao, n)
}

var one = []float64{1}

// foldCols folds the rows×n block at a[ao] into the n column partials, row
// t weighted by wts[wo+t*ws] (nil: 1).
func foldCols(agg matrix.AggOp, a []float64, ao, rows, n int, part, wts []float64, wo, ws int) {
	if agg != matrix.AggMin && agg != matrix.AggMax {
		// Column sums are t(block) %*% weights: four rows per pass.
		if wts == nil {
			wts, wo, ws = one, 0, 0
		}
		vector.TMatMultAdd(a, wts, part, ao, n, wo, ws, 0, rows, n, 1)
		return
	}
	k := vector.OpMin
	if agg == matrix.AggMax {
		k = vector.OpMax
	}
	for t := 0; t < rows; t++ {
		vector.Binary(k, part, a, part, 0, ao+t*n, 0, n)
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
		return vector.Min2(acc, partial)
	case matrix.AggMax:
		return vector.Max2(acc, partial)
	}
	return acc + partial
}
