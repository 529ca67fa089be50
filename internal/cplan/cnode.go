// Package cplan implements code generation plans (CPlans): the backend-
// independent representation of fused operators (paper §2.2). A CPlan is a
// DAG of CNodes under a template node; "code generation" lowers the CNode
// DAG of every root into one register-based vector program (Program: run a
// tile of rows of the main input at a time by one executor, whatever the
// template), plus a readable Go source artifact mirroring the Java classes
// SystemML emits.
package cplan

import (
	"fmt"
	"hash/fnv"
	"strings"

	"sysml/internal/matrix"
)

// TemplateType identifies the fused-operator skeleton a CPlan binds to
// (paper Table 1).
type TemplateType int

// The four paper template types, plus the horizontal multi-output variant:
// TemplateHorizontal fuses sibling cell-bound plans over one shared main
// input into a single pass producing several outputs of mixed aggregation
// kinds (per-root HKinds), generalizing MAgg beyond full aggregates.
const (
	TemplateCell TemplateType = iota
	TemplateRow
	TemplateMAgg
	TemplateOuter
	TemplateHorizontal
)

var templateNames = [...]string{"Cell", "Row", "MAgg", "Outer", "Horizontal"}

func (t TemplateType) String() string { return templateNames[t] }

// CellType is the aggregation variant of a Cell template.
type CellType int

// Cell template variants.
const (
	CellNoAgg CellType = iota
	CellRowAgg
	CellColAgg
	CellFullAgg
)

var cellTypeNames = [...]string{"NO_AGG", "ROW_AGG", "COL_AGG", "FULL_AGG"}

func (t CellType) String() string { return cellTypeNames[t] }

// RowType is the aggregation variant of a Row template.
type RowType int

// Row template variants (paper Table 1: no agg, row agg, col agg, full agg,
// col t agg, B1 variants are reflected in the side-input binding).
const (
	RowNoAgg RowType = iota
	RowRowAgg
	RowColAgg
	RowFullAgg
	RowColAggT // t(X) %*% W pattern: accumulate X_i ⊗ W_i
)

var rowTypeNames = [...]string{"NO_AGG", "ROW_AGG", "COL_AGG", "FULL_AGG", "COL_AGG_B1_T"}

func (t RowType) String() string { return rowTypeNames[t] }

// OuterType is the output variant of an Outer template.
type OuterType int

// Outer template variants.
const (
	OuterRightMM OuterType = iota // C = f(X, UV') %*% V
	OuterLeftMM                   // C = t(f(X, UV')) %*% U
	OuterAgg                      // s = sum(f(X, UV'))
	OuterNoAgg                    // C = f(X, UV') with X's sparsity pattern
)

var outerTypeNames = [...]string{"RIGHT_MM", "LEFT_MM", "FULL_AGG", "NO_AGG"}

func (t OuterType) String() string { return outerTypeNames[t] }

// SideAccess describes how a Cell-template side input is addressed.
type SideAccess int

// Side-input access modes: full matrix cell, broadcast column vector,
// broadcast row vector, or a constant scalar read from a 1×1 matrix.
const (
	AccessCell SideAccess = iota
	AccessCol
	AccessRow
	AccessScalar
)

// NodeKind identifies a CNode operation.
type NodeKind int

// CNode kinds. NodeMain is the bound main-input value (cell for Cell/MAgg/
// Outer, row for Row); NodeSide reads a side input; NodeDot is the Outer
// template's precomputed dotProduct(U_i, V_j).
const (
	NodeMain NodeKind = iota
	NodeSide
	NodeLit
	NodeBinary
	NodeUnary
	NodeAgg     // Row: aggregate a vector child to a scalar
	NodeMatMult // Row: vector child × dense side matrix -> vector
	NodeIdx     // Row: column-range subvector of child
	NodeDot     // Outer: U_i · V_j
	NodeCumsum  // Row: running prefix sum along the row
)

// CNode is one basic-operation node in a CPlan DAG.
type CNode struct {
	Kind     NodeKind
	BinOp    matrix.BinOp
	UnOp     matrix.UnOp
	AggOp    matrix.AggOp
	Value    float64 // NodeLit
	Side     int     // NodeSide / NodeMatMult: side-input index
	Access   SideAccess
	CL, CU   int // NodeIdx bounds
	Children []*CNode
	Vector   bool // Row template: node produces a row vector
	Width    int  // Row template: vector width (0 for scalars)
}

// Lit returns a literal CNode.
func Lit(v float64) *CNode { return &CNode{Kind: NodeLit, Value: v} }

// Main returns the main-input CNode; width is the row width for Row
// templates (0 for cell binding).
func Main(width int) *CNode {
	return &CNode{Kind: NodeMain, Vector: width > 0, Width: width}
}

// Side returns a side-input CNode with the given access mode; width > 0
// marks a Row-template vector access.
func Side(idx int, access SideAccess, width int) *CNode {
	return &CNode{Kind: NodeSide, Side: idx, Access: access, Vector: width > 0, Width: width}
}

// Binary returns an element-wise binary CNode; vector-ness and width
// propagate from the children.
func Binary(op matrix.BinOp, a, b *CNode) *CNode {
	n := &CNode{Kind: NodeBinary, BinOp: op, Children: []*CNode{a, b}}
	n.Vector = a.Vector || b.Vector
	n.Width = maxInt(a.Width, b.Width)
	return n
}

// Unary returns an element-wise unary CNode.
func Unary(op matrix.UnOp, a *CNode) *CNode {
	return &CNode{Kind: NodeUnary, UnOp: op, Children: []*CNode{a}, Vector: a.Vector, Width: a.Width}
}

// Agg returns a Row-template vector aggregation (vector -> scalar).
func Agg(op matrix.AggOp, a *CNode) *CNode {
	return &CNode{Kind: NodeAgg, AggOp: op, Children: []*CNode{a}}
}

// MatMultNode returns a Row-template vector × side-matrix product.
func MatMultNode(a *CNode, side, outWidth int) *CNode {
	return &CNode{Kind: NodeMatMult, Side: side, Children: []*CNode{a}, Vector: true, Width: outWidth}
}

// Idx returns a Row-template subvector selection [cl, cu).
func Idx(a *CNode, cl, cu int) *CNode {
	return &CNode{Kind: NodeIdx, CL: cl, CU: cu, Children: []*CNode{a}, Vector: true, Width: cu - cl}
}

// Dot returns the Outer-template U_i·V_j node.
func Dot() *CNode { return &CNode{Kind: NodeDot} }

// CumsumNode returns a Row-template running prefix sum over a vector child
// (the t(cumsum(t(X))) row-operation of §3.2).
func CumsumNode(a *CNode) *CNode {
	return &CNode{Kind: NodeCumsum, Children: []*CNode{a}, Vector: true, Width: a.Width}
}

// Plan is a complete code generation plan for one fused operator.
type Plan struct {
	Type TemplateType
	Cell CellType
	Row  RowType
	Out  OuterType

	// Root is the cell/row function; for MAgg and Horizontal, Roots holds
	// one function per output and AggOps their aggregation functions.
	Root   *CNode
	Roots  []*CNode
	AggOps []matrix.AggOp

	// HKinds gives each Horizontal root its output kind (NoAgg map,
	// row/col/full aggregate); AggOps entries for NoAgg roots are unused.
	HKinds []CellType

	// AggOp is the aggregation function for aggregating Cell variants.
	AggOp matrix.AggOp

	SparseSafe bool
	NumSides   int
	MainWidth  int // Row: ncol of main input

	// OuterRank is the common rank of U and V for Outer templates.
	OuterRank int
}

// RootKind is the output kind of root q of a MAgg or Horizontal plan; every
// MAgg root is a full aggregate.
func (p *Plan) RootKind(q int) CellType {
	if q < len(p.HKinds) {
		return p.HKinds[q]
	}
	return CellFullAgg
}

// Hash returns a structural hash identifying equivalent CPlans; the plan
// cache uses it to avoid recompiling existing operators (paper §2.1).
func (p *Plan) Hash() uint64 {
	h := fnv.New64a()
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%d|%d|%d|%d|%v|%d|%d|", p.Type, p.Cell, p.Row, p.Out, p.AggOp, p.SparseSafe, p.NumSides, p.MainWidth)
	if p.Root != nil {
		writeNode(&b, p.Root)
	}
	for i, r := range p.Roots {
		fmt.Fprintf(&b, "|agg%d:%d:", i, p.AggOps[i])
		if i < len(p.HKinds) {
			fmt.Fprintf(&b, "h%d:", p.HKinds[i])
		}
		writeNode(&b, r)
	}
	h.Write([]byte(b.String()))
	return h.Sum64()
}

func writeNode(b *strings.Builder, n *CNode) {
	// Width is part of the identity: a Row program's registers and tile
	// size are laid out for the widths it was compiled with.
	fmt.Fprintf(b, "(%d:%d:%d:%d:%g:%d:%d:%d:%d:%d", n.Kind, n.BinOp, n.UnOp, n.AggOp, n.Value, n.Side, n.Access, n.CL, n.CU, n.Width)
	for _, c := range n.Children {
		writeNode(b, c)
	}
	b.WriteString(")")
}

// NumNodes counts the CNodes of the plan (for codegen statistics and the
// instruction-footprint experiment).
func (p *Plan) NumNodes() int {
	count := 0
	var walk func(n *CNode)
	walk = func(n *CNode) {
		count++
		for _, c := range n.Children {
			walk(c)
		}
	}
	if p.Root != nil {
		walk(p.Root)
	}
	for _, r := range p.Roots {
		walk(r)
	}
	return count
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
