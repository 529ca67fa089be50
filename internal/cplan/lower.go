package cplan

import "sysml/internal/matrix"

// lowering translates a CNode DAG into the register program every fused body
// runs (Program), with register allocation and common-subexpression sharing.
// Vector registers hold one row of a tile of the main input — a whole row of
// the widths the CNodes carry for a Row body, a column range as wide as the
// tile (width 0) for a cell body — and every side reads the same way in
// both: a column side is a scalar per tile row, a row side one row for all.
type lowering struct {
	instrs      []RowInstr
	vecWidths   []int // register 0 is the main input
	vecUniform  []bool
	scalUniform []bool
	memo        map[*CNode]regRef
}

type regRef struct {
	idx int
	vec bool
}

func newLowering(mainWidth int) *lowering {
	return &lowering{
		vecWidths:  []int{mainWidth},
		vecUniform: []bool{false},
		memo:       map[*CNode]regRef{},
	}
}

// program wraps up the lowered instructions with res as the result.
func (c *lowering) program(res regRef, kind CellType, agg matrix.AggOp) *Program {
	p := &Program{Instrs: c.instrs, VecWidths: c.vecWidths, NumScalars: len(c.scalUniform),
		VecUniform: c.vecUniform, ScalUniform: c.scalUniform,
		Kind: kind, Agg: agg, ResultReg: res.idx, ResultVec: res.vec, DotReg: -1, OutWidth: 1}
	if res.vec {
		p.OutWidth = c.vecWidths[res.idx]
	}
	return p
}

// emit allocates the destination register, appends the instruction and
// records whether its result is uniform, that is, the same for every row:
// loads of row-independent data, and operations all of whose register
// operands are uniform (see Program.VecUniform).
func (c *lowering) emit(in RowInstr, vec bool, width int) regRef {
	vu, su := c.vecUniform, c.scalUniform
	switch in.Op {
	case RLit:
		in.Uniform = true
	case RLoadDot:
	case RLoadSideRow, RLoadSideVal:
		in.Uniform = in.RowZero
	case RBinVV, RDot:
		in.Uniform = vu[in.Src1] && vu[in.Src2]
	case RBinVS:
		in.Uniform = vu[in.Src1] && su[in.Src2]
	case RBinSV:
		in.Uniform = su[in.Src1] && vu[in.Src2]
	case RBinSS:
		in.Uniform = su[in.Src1] && su[in.Src2]
	case RUnS, RSplat:
		in.Uniform = su[in.Src1]
	default: // RUnV, RAggV, RMatMul, RIdxV, RCumsumV
		in.Uniform = vu[in.Src1]
	}
	if vec {
		in.Dst = len(c.vecWidths)
		c.vecWidths = append(c.vecWidths, width)
		c.vecUniform = append(c.vecUniform, in.Uniform)
	} else {
		in.Dst = len(c.scalUniform)
		c.scalUniform = append(c.scalUniform, in.Uniform)
	}
	c.instrs = append(c.instrs, in)
	return regRef{in.Dst, vec}
}

// lower returns the register holding n's value; ok is false when n has no
// form in this binding.
func (c *lowering) lower(n *CNode) (regRef, bool) {
	if r, ok := c.memo[n]; ok {
		return r, true
	}
	r, ok := c.lowerNode(n)
	if ok {
		c.memo[n] = r
	}
	return r, ok
}

func (c *lowering) lowerNode(n *CNode) (regRef, bool) {
	switch n.Kind {
	case NodeMain:
		return regRef{0, true}, true
	case NodeLit:
		return c.emit(RowInstr{Op: RLit, Scalar: n.Value}, false, 0), true
	case NodeSide:
		switch n.Access {
		case AccessScalar:
			return c.emit(RowInstr{Op: RLoadSideVal, Side: n.Side, RowZero: true}, false, 0), true
		case AccessCell:
			return c.emit(RowInstr{Op: RLoadSideRow, Side: n.Side}, true, n.Width), true
		case AccessCol:
			return c.emit(RowInstr{Op: RLoadSideVal, Side: n.Side}, false, 0), true
		}
		return c.emit(RowInstr{Op: RLoadSideRow, Side: n.Side, RowZero: true}, true, n.Width), true
	case NodeBinary:
		l, ok1 := c.lower(n.Children[0])
		if _, sq := square(n); sq && ok1 && l.vec {
			// x^2 is x·x: a multiply kernel instead of a pow call per element.
			return c.emit(RowInstr{Op: RBinVV, BinOp: matrix.BinMul, Src1: l.idx, Src2: l.idx}, true, n.Width), true
		}
		r, ok2 := c.lower(n.Children[1])
		if !ok1 || !ok2 {
			return regRef{}, false
		}
		op := RBinSS
		switch {
		case l.vec && r.vec:
			op = RBinVV
		case l.vec:
			op = RBinVS
		case r.vec:
			op = RBinSV
		}
		return c.emit(RowInstr{Op: op, BinOp: n.BinOp, Src1: l.idx, Src2: r.idx}, l.vec || r.vec, n.Width), true
	case NodeUnary:
		s, ok := c.lower(n.Children[0])
		if !ok {
			return regRef{}, false
		}
		op := RUnS
		if s.vec {
			op = RUnV
		}
		return c.emit(RowInstr{Op: op, UnOp: n.UnOp, Src1: s.idx}, s.vec, n.Width), true
	}
	switch n.Kind {
	case NodeDot:
		return c.emit(RowInstr{Op: RLoadDot}, true, 0), true
	case NodeAgg:
		return c.reduce(n.AggOp, n.Children[0])
	case NodeMatMult, NodeIdx, NodeCumsum:
		s, ok := c.lower(n.Children[0])
		switch {
		case !ok:
			return regRef{}, false
		case n.Kind == NodeMatMult:
			return c.emit(RowInstr{Op: RMatMul, Src1: s.idx, Side: n.Side}, true, n.Width), true
		case n.Kind == NodeIdx:
			return c.emit(RowInstr{Op: RIdxV, Src1: s.idx, CL: n.CL, CU: n.CU}, true, n.Width), true
		case !s.vec:
			return s, true // the running sum of a scalar is the scalar
		}
		return c.emit(RowInstr{Op: RCumsumV, Src1: s.idx}, true, n.Width), true
	}
	return regRef{}, false
}

// square reports whether n is x^2 with a literal exponent and returns x.
func square(n *CNode) (*CNode, bool) {
	if n.Kind == NodeBinary && n.BinOp == matrix.BinPow &&
		n.Children[1].Kind == NodeLit && n.Children[1].Value == 2 {
		return n.Children[0], true
	}
	return nil, false
}

// factors lowers the two vector operands of n = a*b (x^2 included), whose
// sum is a dot product that never materializes the product; ok is false for
// every other n, one already lowered for another consumer included.
func (c *lowering) factors(n *CNode) (l, r regRef, ok bool) {
	if _, done := c.memo[n]; n.Kind != NodeBinary || done {
		return l, r, false
	}
	var a, b *CNode
	if x, sq := square(n); sq {
		a, b = x, x
	} else if n.BinOp == matrix.BinMul {
		a, b = n.Children[0], n.Children[1]
	} else {
		return l, r, false
	}
	l, ok1 := c.lower(a)
	r, ok2 := c.lower(b)
	return l, r, ok1 && ok2 && l.vec && r.vec
}

// reduce lowers agg over the value of n into a scalar register; the sum of a
// product runs as a dot product, over sparse main rows too.
func (c *lowering) reduce(agg matrix.AggOp, n *CNode) (regRef, bool) {
	if agg == matrix.AggSum {
		if l, r, ok := c.factors(n); ok {
			return c.emit(RowInstr{Op: RDot, Src1: l.idx, Src2: r.idx}, false, 0), true
		}
	}
	s, ok := c.lower(n)
	if !ok || !s.vec {
		return s, ok // the aggregate of a scalar is the scalar
	}
	return c.emit(RowInstr{Op: RAggV, AggOp: agg, Src1: s.idx}, false, 0), true
}

// perCell returns the value of a cell body as a vector register: a body
// without a vector leaf (a constant) yields its scalar once per visited cell.
func (c *lowering) perCell(r regRef) regRef {
	if r.vec {
		return r
	}
	return c.emit(RowInstr{Op: RSplat, Src1: r.idx}, true, 0)
}
