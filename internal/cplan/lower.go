package cplan

import "sysml/internal/matrix"

// lowering translates a CNode DAG into the register program every fused body
// runs — RowProgram for Row bodies, CellVecProgram for the roots of Cell,
// MAgg, Horizontal and Outer plans — with register allocation and
// common-subexpression sharing. A Row body binds one main row per vector
// register; a cell body binds a span of cells, and every matrix it reads —
// the main input, a side of any access, the Outer dot — is a vector leaf
// the skeleton's binding loads.
type lowering struct {
	instrs      []RowInstr
	vecWidths   []int // register 0 is the main input
	vecUniform  []bool
	scalUniform []bool
	memo        map[*CNode]regRef

	cell      bool  // cell body: vectors are spans of cells
	flatSides []int // cell body: sides read cell by cell (AccessCell)
	bcast     int   // cell body: leaf registers of row and column sides and the Outer dot
}

type regRef struct {
	idx int
	vec bool
}

func newLowering(mainWidth int, cell bool) *lowering {
	return &lowering{
		vecWidths:  []int{mainWidth},
		vecUniform: []bool{false},
		memo:       map[*CNode]regRef{},
		cell:       cell,
	}
}

// emit allocates the destination register, appends the instruction and
// records whether its result is uniform, that is, the same for every row:
// loads of row-independent data, and operations all of whose register
// operands are uniform (see RowProgram.VecUniform).
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
		switch {
		case n.Access == AccessScalar:
			return c.emit(RowInstr{Op: RLoadSideVal, Side: n.Side, RowZero: true}, false, 0), true
		case n.Access == AccessCell:
			if c.cell {
				c.flatSides = append(c.flatSides, n.Side)
			}
			return c.emit(RowInstr{Op: RLoadSideRow, Side: n.Side}, true, n.Width), true
		case c.cell:
			// A column side is its row's value once per cell (RLoadSideVal into
			// a vector register), a row side its column range per row.
			c.bcast++
			op := RLoadSideRow
			if n.Access == AccessCol {
				op = RLoadSideVal
			}
			return c.emit(RowInstr{Op: op, Side: n.Side, RowZero: n.Access == AccessRow}, true, 0), true
		case n.Access == AccessCol:
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
	if c.cell {
		if n.Kind != NodeDot {
			return regRef{}, false // per-row operations have no cell form
		}
		c.bcast++
		return c.emit(RowInstr{Op: RLoadDot}, true, 0), true
	}
	switch n.Kind {
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

// reduce lowers agg over the value of n into a scalar register. A sum over
// a product of two vectors (x^2 included) becomes a dot product, which never
// materializes the product and runs over sparse main rows.
func (c *lowering) reduce(agg matrix.AggOp, n *CNode) (regRef, bool) {
	if _, done := c.memo[n]; agg == matrix.AggSum && n.Kind == NodeBinary && !done {
		var a, b *CNode
		if x, ok := square(n); ok {
			a, b = x, x
		} else if n.BinOp == matrix.BinMul {
			a, b = n.Children[0], n.Children[1]
		}
		if a != nil {
			l, ok1 := c.lower(a)
			r, ok2 := c.lower(b)
			if !ok1 || !ok2 {
				return regRef{}, false
			}
			if l.vec && r.vec {
				return c.emit(RowInstr{Op: RDot, Src1: l.idx, Src2: r.idx}, false, 0), true
			}
		}
	}
	s, ok := c.lower(n)
	if ok && c.cell {
		s = c.perCell(s)
	}
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
