package cplan

import (
	"math"

	"sysml/internal/matrix"
)

// CellFunc is the compiled genexec function of Cell/MAgg/Outer operators:
// it maps one main-input value (plus side inputs addressed via ctx) to one
// output value. rix/cix are the current cell coordinates.
type CellFunc func(ctx *Ctx, a float64, rix, cix int) float64

// Operator is a compiled fused operator: the analog of the generated and
// JIT-compiled Java class in SystemML. It pairs the CPlan with executable
// closures and the rendered source artifact.
type Operator struct {
	Plan      *Plan
	Hash      uint64
	ClassName string
	Source    string

	CellFn  CellFunc   // Cell and Outer genexec
	MAggFns []CellFunc // MAgg/Horizontal: one genexec per output
	RowProg *RowProgram
	// VecProg is the dense form of a Cell plan and MAggVecs the per-output
	// forms of a MAgg/Horizontal plan (nil when the access pattern requires
	// per-cell evaluation).
	VecProg  *CellVecProgram
	MAggVecs []*CellVecProgram
}

// Compile translates a CPlan into an executable Operator. This is the fast
// "janino" analog: closures are assembled directly from the CNode DAG.
func Compile(p *Plan, className string) *Operator {
	op := &Operator{Plan: p, Hash: p.Hash(), ClassName: className}
	switch p.Type {
	case TemplateCell:
		op.CellFn = compileCell(p.Root)
		op.VecProg = CompileCellVec(p.Root, p.Cell, p.AggOp)
	case TemplateOuter:
		op.CellFn = compileCell(p.Root)
	case TemplateMAgg, TemplateHorizontal:
		for q, r := range p.Roots {
			op.MAggFns = append(op.MAggFns, compileCell(r))
			op.MAggVecs = append(op.MAggVecs, CompileCellVec(r, p.RootKind(q), p.AggOps[q]))
		}
	case TemplateRow:
		op.RowProg = compileRow(p)
	}
	op.Source = Render(p, className)
	return op
}

// Tier names the body dense inputs run through for the cell-bound templates:
// "vec" when every root has a dense program, "cell" when any root needs the
// per-cell closures. Row and Outer operators have a single body and report
// "".
func (op *Operator) Tier() string {
	vecs := op.MAggVecs
	switch op.Plan.Type {
	case TemplateCell:
		vecs = []*CellVecProgram{op.VecProg}
	case TemplateRow, TemplateOuter:
		return ""
	}
	for _, v := range vecs {
		if v == nil {
			return "cell"
		}
	}
	return "vec"
}

// Ctx is the per-worker execution context of a fused operator: side-input
// views with stateful row cursors (the paper's stateful iterators under the
// stateless getValue abstraction), pre-read scalar sides, and the Outer
// template's per-cell dot product.
type Ctx struct {
	Sides       []*SideView
	SideScalars []float64
	Dot         float64
}

// NewCtx builds a context over the side inputs.
func NewCtx(sides []*matrix.Matrix) *Ctx {
	c := &Ctx{
		Sides:       make([]*SideView, len(sides)),
		SideScalars: make([]float64, len(sides)),
	}
	for i, m := range sides {
		c.Sides[i] = NewSideView(m)
		if m.Rows == 1 && m.Cols == 1 {
			c.SideScalars[i] = m.At(0, 0)
		}
	}
	return c
}

// Clone returns an independent context for another worker thread.
func (c *Ctx) Clone() *Ctx {
	n := &Ctx{
		Sides:       make([]*SideView, len(c.Sides)),
		SideScalars: append([]float64(nil), c.SideScalars...),
	}
	for i, s := range c.Sides {
		n.Sides[i] = NewSideView(s.m)
	}
	return n
}

// SideView wraps one side input with a row cursor so that sparse sides are
// scanned, not binary-searched, under monotone per-row access.
type SideView struct {
	m     *matrix.Matrix
	dense []float64
	cols  int
	// sparse cursor
	row  int
	pos  int
	vals []float64
	cix  []int
}

// NewSideView wraps a matrix.
func NewSideView(m *matrix.Matrix) *SideView {
	v := &SideView{m: m, cols: m.Cols, row: -1}
	if !m.IsSparse() {
		v.dense = m.Dense()
	}
	return v
}

// Matrix returns the underlying side matrix.
func (v *SideView) Matrix() *matrix.Matrix { return v.m }

// Value returns element (r, c). For sparse sides, sequential access within
// a row advances a cursor; random access falls back to a rescan. The dense
// fast path is small enough to inline into generated closures.
func (v *SideView) Value(r, c int) float64 {
	if v.dense != nil {
		return v.dense[r*v.cols+c]
	}
	return v.sparseValue(r, c)
}

func (v *SideView) sparseValue(r, c int) float64 {
	if r != v.row {
		v.vals, v.cix = v.m.Sparse().Row(r)
		v.row, v.pos = r, 0
	}
	if v.pos > 0 && v.pos <= len(v.cix) && (v.pos == len(v.cix) || v.cix[v.pos] > c) && v.cix[v.pos-1] > c {
		v.pos = 0 // non-monotone access: restart scan
	}
	for v.pos < len(v.cix) && v.cix[v.pos] < c {
		v.pos++
	}
	if v.pos < len(v.cix) && v.cix[v.pos] == c {
		return v.vals[v.pos]
	}
	return 0
}

// DenseData returns the dense backing slice of the side input, or nil when
// the side is sparse.
func (v *SideView) DenseData() []float64 { return v.dense }

// Cols returns the side input's column count.
func (v *SideView) Cols() int { return v.cols }

// DensifyRow expands sparse row r into dst (which must have length >= the
// side's column count).
func (v *SideView) DensifyRow(r int, dst []float64) {
	for i := range dst[:v.cols] {
		dst[i] = 0
	}
	vals, cix := v.m.Sparse().Row(r)
	for k, j := range cix {
		dst[j] = vals[k]
	}
}

// compileCell assembles the genexec closure for cell-binding templates.
func compileCell(n *CNode) CellFunc {
	switch n.Kind {
	case NodeLit:
		v := n.Value
		return func(*Ctx, float64, int, int) float64 { return v }
	case NodeMain:
		return func(_ *Ctx, a float64, _, _ int) float64 { return a }
	case NodeDot:
		return func(ctx *Ctx, _ float64, _, _ int) float64 { return ctx.Dot }
	case NodeSide:
		idx := n.Side
		switch n.Access {
		case AccessScalar:
			return func(ctx *Ctx, _ float64, _, _ int) float64 { return ctx.SideScalars[idx] }
		case AccessCol:
			return func(ctx *Ctx, _ float64, rix, _ int) float64 { return ctx.Sides[idx].Value(rix, 0) }
		case AccessRow:
			return func(ctx *Ctx, _ float64, _, cix int) float64 { return ctx.Sides[idx].Value(0, cix) }
		default:
			return func(ctx *Ctx, _ float64, rix, cix int) float64 { return ctx.Sides[idx].Value(rix, cix) }
		}
	case NodeUnary:
		in := compileCell(n.Children[0])
		return compileCellUnary(n.UnOp, in)
	case NodeBinary:
		l := compileCell(n.Children[0])
		r := compileCell(n.Children[1])
		return compileCellBinary(n.BinOp, l, r)
	}
	panic("cplan: CNode kind not valid in cell context: " + nodeKindName(n.Kind))
}

func compileCellBinary(op matrix.BinOp, l, r CellFunc) CellFunc {
	switch op {
	case matrix.BinAdd:
		return func(c *Ctx, a float64, ri, ci int) float64 { return l(c, a, ri, ci) + r(c, a, ri, ci) }
	case matrix.BinSub:
		return func(c *Ctx, a float64, ri, ci int) float64 { return l(c, a, ri, ci) - r(c, a, ri, ci) }
	case matrix.BinMul:
		return func(c *Ctx, a float64, ri, ci int) float64 { return l(c, a, ri, ci) * r(c, a, ri, ci) }
	case matrix.BinDiv:
		return func(c *Ctx, a float64, ri, ci int) float64 { return l(c, a, ri, ci) / r(c, a, ri, ci) }
	default:
		o := op
		return func(c *Ctx, a float64, ri, ci int) float64 { return o.Apply(l(c, a, ri, ci), r(c, a, ri, ci)) }
	}
}

func compileCellUnary(op matrix.UnOp, in CellFunc) CellFunc {
	switch op {
	case matrix.UnExp:
		return func(c *Ctx, a float64, ri, ci int) float64 { return math.Exp(in(c, a, ri, ci)) }
	case matrix.UnLog:
		return func(c *Ctx, a float64, ri, ci int) float64 { return math.Log(in(c, a, ri, ci)) }
	case matrix.UnNeg:
		return func(c *Ctx, a float64, ri, ci int) float64 { return -in(c, a, ri, ci) }
	default:
		o := op
		return func(c *Ctx, a float64, ri, ci int) float64 { return o.Apply(in(c, a, ri, ci)) }
	}
}

// ProbeSparseSafe analyzes structurally whether the cell function is
// sparse-safe with respect to the main input, i.e. whether a zero main
// value forces a zero result so that zero cells can be skipped. Like
// SystemML, multiplication and division by the main input count as sparse
// drivers regardless of the other operand (the 0·NaN corner case is
// accepted by convention, which is what makes sum(X*log(UV'+eps))
// sparse-safe in the paper's Fig. 1d).
func ProbeSparseSafe(roots ...*CNode) bool {
	for _, r := range roots {
		if !zeroWhenMainZero(r) {
			return false
		}
	}
	return true
}

func zeroWhenMainZero(n *CNode) bool {
	switch n.Kind {
	case NodeMain:
		return true
	case NodeLit:
		return n.Value == 0
	case NodeSide, NodeDot:
		return false
	case NodeUnary:
		return n.UnOp.SparseSafe() && zeroWhenMainZero(n.Children[0])
	case NodeBinary:
		l := zeroWhenMainZero(n.Children[0])
		r := zeroWhenMainZero(n.Children[1])
		switch n.BinOp {
		case matrix.BinMul, matrix.BinAnd:
			return l || r
		case matrix.BinDiv, matrix.BinPow:
			return l
		default:
			// Zero-zero operands decide generically (covers e.g. X != 0,
			// X + 0, min/max with zero-propagating children).
			return l && r && n.BinOp.Apply(0, 0) == 0
		}
	case NodeAgg, NodeMatMult, NodeIdx:
		// Row-template reductions of a zero vector are zero for sums.
		return zeroWhenMainZero(n.Children[0])
	}
	return false
}

func nodeKindName(k NodeKind) string {
	names := [...]string{"main", "side", "lit", "binary", "unary", "agg", "matmult", "idx", "dot"}
	if int(k) < len(names) {
		return names[k]
	}
	return "?"
}
