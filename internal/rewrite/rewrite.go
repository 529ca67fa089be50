// Package rewrite implements SystemML-style static (size-independent) and
// dynamic (size-dependent) HOP DAG rewrites: constant folding, algebraic
// simplifications, and common-subexpression elimination (paper §2.1).
//
// Apply reconstructs the DAG bottom-up, hash-consing nodes so structurally
// identical subexpressions collapse into one node; the rebuilt DAG has
// accurate parent lists, which downstream fusion optimization relies on for
// materialization-point detection.
package rewrite

import (
	"fmt"
	"slices"
	"strings"

	"sysml/internal/hop"
	"sysml/internal/matrix"
)

// Stats reports what a rewrite pass did.
type Stats struct {
	FoldedConstants int
	Simplified      int
	CSEMerged       int
}

// Apply rebuilds the DAG with constant folding, simplification rewrites,
// and CSE, returning the new DAG and rewrite statistics.
func Apply(d *hop.DAG) (*hop.DAG, Stats) {
	r := &rewriter{
		out:   hop.NewDAG(),
		byKey: map[string]*hop.Hop{},
		memo:  map[int64]*hop.Hop{},
	}
	for _, name := range d.OutputNames() {
		r.out.Output(name, r.rewrite(d.Outputs[name]))
	}
	// A node CSE merged into an equal one, or a simplification replaced, is
	// no consumer of its inputs.
	order := hop.TopoOrder(r.out.Roots())
	live := make(map[*hop.Hop]bool, len(order))
	for _, h := range order {
		live[h] = true
	}
	for _, h := range order {
		h.Parents = slices.DeleteFunc(h.Parents, func(p *hop.Hop) bool { return !live[p] })
	}
	return r.out, r.stats
}

type rewriter struct {
	out   *hop.DAG
	byKey map[string]*hop.Hop
	memo  map[int64]*hop.Hop
	stats Stats
}

func (r *rewriter) rewrite(h *hop.Hop) *hop.Hop {
	if n, ok := r.memo[h.ID]; ok {
		return n
	}
	ins := make([]*hop.Hop, len(h.Inputs))
	for i, in := range h.Inputs {
		ins[i] = r.rewrite(in)
	}
	n := r.build(h, ins)
	n = r.cse(n)
	r.memo[h.ID] = n
	return n
}

// build constructs the rewritten node, applying local simplifications.
func (r *rewriter) build(h *hop.Hop, ins []*hop.Hop) *hop.Hop {
	d := r.out
	switch h.Kind {
	case hop.OpData:
		return d.Read(h.Name, h.Rows, h.Cols, h.Nnz)
	case hop.OpLiteral:
		return d.Lit(h.Value)
	case hop.OpDataGen:
		switch h.Gen {
		case hop.GenRand:
			return d.Rand(h.Rows, h.Cols, h.GenArgs[0], h.GenArgs[1], h.GenArgs[2], int64(h.GenArgs[3]))
		case hop.GenFill:
			return d.FillGen(h.Rows, h.Cols, h.GenArgs[0])
		default:
			g := d.FillGen(h.Rows, h.Cols, 0)
			g.Gen, g.GenArgs = h.Gen, h.GenArgs
			return g
		}
	case hop.OpBinary:
		return r.buildBinary(h.BinOp, ins[0], ins[1])
	case hop.OpUnary:
		if ins[0].Kind == hop.OpLiteral {
			r.stats.FoldedConstants++
			return d.Lit(h.UnOp.Apply(ins[0].Value))
		}
		return d.Unary(h.UnOp, ins[0])
	case hop.OpAggUnary:
		// sum(t(X)) -> sum(X): transpose is irrelevant for full aggregates.
		if h.AggDir == matrix.DirAll && ins[0].Kind == hop.OpTranspose {
			r.stats.Simplified++
			ins[0] = ins[0].Inputs[0]
		}
		return d.Agg(h.AggOp, h.AggDir, ins[0])
	case hop.OpMatMult:
		return d.MatMult(ins[0], ins[1])
	case hop.OpTranspose:
		// t(t(X)) -> X.
		if ins[0].Kind == hop.OpTranspose {
			r.stats.Simplified++
			return ins[0].Inputs[0]
		}
		return d.Transpose(ins[0])
	case hop.OpIndex:
		// Full-range indexing is the identity.
		if h.RL == 0 && h.CL == 0 && h.RU == ins[0].Rows && h.CU == ins[0].Cols {
			r.stats.Simplified++
			return ins[0]
		}
		return d.Index(ins[0], h.RL, h.RU, h.CL, h.CU)
	case hop.OpCBind:
		return d.CBindOp(ins[0], ins[1])
	case hop.OpRBind:
		return d.RBindOp(ins[0], ins[1])
	case hop.OpRowIndexMax:
		return d.RowIndexMaxOp(ins[0])
	case hop.OpDiag:
		return d.DiagOp(ins[0])
	case hop.OpCumsum:
		return d.CumsumOp(ins[0])
	case hop.OpSpoof:
		return d.NewSpoof(h.SpoofType, h.Spoof, h.Rows, h.Cols, h.Nnz, ins...)
	}
	panic(fmt.Sprintf("rewrite: unknown hop kind %v", h.Kind))
}

func (r *rewriter) buildBinary(op matrix.BinOp, a, b *hop.Hop) *hop.Hop {
	d := r.out
	// Constant folding.
	if a.Kind == hop.OpLiteral && b.Kind == hop.OpLiteral {
		r.stats.FoldedConstants++
		return d.Lit(op.Apply(a.Value, b.Value))
	}
	// Identity-element simplifications.
	if lit, x, litLeft := litOperand(a, b); lit != nil {
		v := lit.Value
		switch {
		case op == matrix.BinMul && v == 1,
			op == matrix.BinAdd && v == 0,
			op == matrix.BinSub && v == 0 && !litLeft,
			op == matrix.BinDiv && v == 1 && !litLeft,
			op == matrix.BinPow && v == 1 && !litLeft:
			r.stats.Simplified++
			return x
		case op == matrix.BinMul && v == 0:
			r.stats.Simplified++
			if x.IsScalar() {
				return d.Lit(0)
			}
			return d.FillGen(x.Rows, x.Cols, 0)
		case op == matrix.BinSub && v == 0 && litLeft:
			r.stats.Simplified++
			return d.Unary(matrix.UnNeg, x)
		}
	}
	return d.Binary(op, a, b)
}

func litOperand(a, b *hop.Hop) (lit, other *hop.Hop, litLeft bool) {
	if a.Kind == hop.OpLiteral {
		return a, b, true
	}
	if b.Kind == hop.OpLiteral {
		return b, a, false
	}
	return nil, nil, false
}

// cse collapses the node into an existing structurally identical one.
func (r *rewriter) cse(n *hop.Hop) *hop.Hop {
	key := nodeKey(n)
	if prev, ok := r.byKey[key]; ok && prev != n {
		r.stats.CSEMerged++
		return prev
	}
	r.byKey[key] = n
	return n
}

func nodeKey(n *hop.Hop) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", n.Kind)
	switch n.Kind {
	case hop.OpData:
		b.WriteString(n.Name)
	case hop.OpLiteral:
		fmt.Fprintf(&b, "%g", n.Value)
	case hop.OpDataGen:
		fmt.Fprintf(&b, "%d:%v:%dx%d", n.Gen, n.GenArgs, n.Rows, n.Cols)
	case hop.OpBinary:
		fmt.Fprintf(&b, "%d", n.BinOp)
	case hop.OpUnary:
		fmt.Fprintf(&b, "%d", n.UnOp)
	case hop.OpAggUnary:
		fmt.Fprintf(&b, "%d:%d", n.AggOp, n.AggDir)
	case hop.OpIndex:
		fmt.Fprintf(&b, "%d:%d:%d:%d", n.RL, n.RU, n.CL, n.CU)
	case hop.OpSpoof:
		fmt.Fprintf(&b, "%p", n.Spoof)
	}
	for _, in := range n.Inputs {
		fmt.Fprintf(&b, "|%d", in.ID)
	}
	return b.String()
}
