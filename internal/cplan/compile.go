package cplan

import "sysml/internal/matrix"

// Operator is a compiled fused operator: the analog of the generated and
// JIT-compiled Java class in SystemML. It pairs the CPlan with its one
// executable body — a register program per root — and the rendered source
// artifact.
type Operator struct {
	Plan      *Plan
	Hash      uint64
	ClassName string
	Source    string

	// Progs holds the body of every root: the root of a Row, Cell or Outer
	// plan, the roots of a MAgg or Horizontal plan in order.
	Progs []*Program

	// Compressed records, once per operator, whether the plan can run over
	// the dictionaries of a compressed main input (CompressedEligible), and
	// NotCompressed the reason when it cannot.
	Compressed    bool
	NotCompressed string
}

// Compile translates a CPlan into an executable Operator. This is the fast
// "janino" analog: every root is lowered once, straight from the CNode DAG.
func Compile(p *Plan, className string) *Operator {
	op := &Operator{Plan: p, Hash: p.Hash(), ClassName: className}
	switch p.Type {
	case TemplateRow:
		op.Progs = []*Program{compileRow(p)}
	case TemplateCell:
		op.Progs = []*Program{CompileCell(p.Root, p.Cell, p.AggOp)}
	case TemplateOuter:
		// The products consume the body's value per visited cell.
		kind := CellNoAgg
		if p.Out == OuterAgg {
			kind = CellFullAgg
		}
		op.Progs = []*Program{CompileCell(p.Root, kind, matrix.AggSum)}
	default: // TemplateMAgg, TemplateHorizontal
		for q, r := range p.Roots {
			op.Progs = append(op.Progs, CompileCell(r, p.RootKind(q), p.AggOps[q]))
		}
	}
	op.Compressed, op.NotCompressed = CompressedEligible(p)
	op.Source = Render(p, className)
	return op
}

// Ctx is the per-worker execution context of a fused operator: side-input
// views with stateful row cursors (the paper's stateful iterators under the
// stateless getValue abstraction), pre-read scalar sides, and the factors
// behind the Outer dot leaf — cell (i, j) reads U_i·V_j, Rank values each.
type Ctx struct {
	Sides       []*SideView
	SideScalars []float64
	U, V        []float64
	Rank        int
}

// NewCtx builds a context over the side inputs of progs. Sparse vectors among
// them are densified (a broadcast side is read once per row or column), and
// so are the operands of inner matrix products, which stream dense rows.
func NewCtx(sides []*matrix.Matrix, progs ...*Program) *Ctx {
	c := &Ctx{
		Sides:       make([]*SideView, len(sides)),
		SideScalars: make([]float64, len(sides)),
	}
	for i, m := range sides {
		if m.IsSparse() && (m.Rows == 1 || m.Cols == 1) {
			m = m.ToDense()
		}
		c.Sides[i] = NewSideView(m)
		if m.Rows == 1 && m.Cols == 1 {
			c.SideScalars[i] = m.At(0, 0)
		}
	}
	for _, p := range progs {
		for _, in := range p.Instrs {
			if in.Op == RMatMul && c.Sides[in.Side].dense == nil {
				c.Sides[in.Side] = NewSideView(sides[in.Side].ToDense())
			}
		}
	}
	return c
}

// Clone returns an independent context for another worker thread.
func (c *Ctx) Clone() *Ctx {
	n := *c
	n.Sides = make([]*SideView, len(c.Sides))
	for i, s := range c.Sides {
		n.Sides[i] = NewSideView(s.m)
	}
	return &n
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

// Value returns element (r, c). For sparse sides, sequential access within
// a row advances a cursor; random access falls back to a rescan.
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
