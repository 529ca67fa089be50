package cplan

import (
	"fmt"
	"strings"

	"sysml/internal/matrix"
)

// Structural fingerprints classify compiled CPlans into a small set of
// canonical shapes so the plan cache can admit a specialized AOT chunk
// program for the hot shapes (the Go stand-in for SystemML's JIT: instead of
// compiling arbitrary bodies to machine code, the common bodies are
// recognized and dispatched to pre-built tight loops; everything else keeps
// the interpreted genexec/vector-program path).
//
// The normal form recognized for cell-bound roots is
//
//	out = A2 · g(A1·x + B1) [· S] + B2
//
// where x is the main input cell, A1/B1/A2/B2 fold from literal constants
// only, g is one of a fixed set of unary shapes (identity, exp, log, sqrt,
// abs, sigmoid, x², relu-style max with a literal clamp), and S is an
// optional flat (main-shaped) side input factor. Scalar side inputs are
// deliberately NOT folded: their value is bound at execution, so folding
// them would specialize on data, not structure.

// gKind is the recognized unary shape of the normal form.
type gKind int

const (
	gNone gKind = iota
	gExp
	gLog
	gSqrt
	gAbs
	gSigmoid
	gPow2
	gRelu // max(affine, GP)
)

var gNames = [...]string{"id", "exp", "log", "sqrt", "abs", "sigmoid", "pow2", "relu"}

// cform is a cell expression in normal form. A constant subtree is carried
// as Const until it combines with an x-dependent form.
type cform struct {
	isConst bool
	c       float64

	a1, b1 float64 // inner affine of the main input
	g      gKind
	gp     float64 // relu clamp
	a2, b2 float64 // outer affine
	had    int     // flat side factor, -1 when absent
}

func xform() cform { return cform{a1: 1, a2: 1, had: -1} }

// affine reports whether the form is a plain A·x+B (no g, no side factor)
// and returns the folded coefficients.
func (f cform) affine() (a, b float64, ok bool) {
	if f.isConst || f.g != gNone || f.had >= 0 {
		return 0, 0, false
	}
	return f.a2 * f.a1, f.a2*f.b1 + f.b2, true
}

// normalizeCell matches a cell-bound CNode tree against the normal form.
func normalizeCell(n *CNode) (cform, bool) {
	switch n.Kind {
	case NodeLit:
		return cform{isConst: true, c: n.Value}, true
	case NodeMain:
		return xform(), true
	case NodeUnary:
		in, ok := normalizeCell(n.Children[0])
		if !ok {
			return cform{}, false
		}
		if in.isConst {
			return cform{isConst: true, c: n.UnOp.Apply(in.c)}, true
		}
		if n.UnOp == matrix.UnNeg {
			in.a2, in.b2 = -in.a2, -in.b2
			return in, true
		}
		a, b, ok := in.affine()
		if !ok {
			return cform{}, false
		}
		var g gKind
		switch n.UnOp {
		case matrix.UnExp:
			g = gExp
		case matrix.UnLog:
			g = gLog
		case matrix.UnSqrt:
			g = gSqrt
		case matrix.UnAbs:
			g = gAbs
		case matrix.UnSigmoid:
			g = gSigmoid
		default:
			return cform{}, false
		}
		return cform{a1: a, b1: b, g: g, a2: 1, had: -1}, true
	case NodeBinary:
		return normalizeBinary(n)
	}
	return cform{}, false
}

func normalizeBinary(n *CNode) (cform, bool) {
	// Hadamard factor: affine(x) · S with S a flat side input.
	if n.BinOp == matrix.BinMul {
		if f, ok := hadamard(n.Children[0], n.Children[1]); ok {
			return f, true
		}
		if f, ok := hadamard(n.Children[1], n.Children[0]); ok {
			return f, true
		}
	}
	l, okL := normalizeCell(n.Children[0])
	r, okR := normalizeCell(n.Children[1])
	if !okL || !okR {
		return cform{}, false
	}
	if l.isConst && r.isConst {
		return cform{isConst: true, c: n.BinOp.Apply(l.c, r.c)}, true
	}
	switch n.BinOp {
	case matrix.BinAdd:
		if l.isConst {
			l, r = r, l
		}
		if r.isConst {
			l.b2 += r.c
			return l, true
		}
		return combineAffine(l, r, 1)
	case matrix.BinSub:
		if r.isConst {
			l.b2 -= r.c
			return l, true
		}
		if l.isConst {
			r.a2, r.b2 = -r.a2, l.c-r.b2
			return r, true
		}
		return combineAffine(l, r, -1)
	case matrix.BinMul:
		if l.isConst {
			l, r = r, l
		}
		if r.isConst {
			l.a2 *= r.c
			l.b2 *= r.c
			return l, true
		}
		// x·x and, generally, equal-affine squares fold to pow2.
		la, lb, okA := l.affine()
		ra, rb, okB := r.affine()
		if okA && okB && la == ra && lb == rb {
			return cform{a1: la, b1: lb, g: gPow2, a2: 1, had: -1}, true
		}
		return cform{}, false
	case matrix.BinDiv:
		if r.isConst && r.c != 0 {
			l.a2 /= r.c
			l.b2 /= r.c
			return l, true
		}
		return cform{}, false
	case matrix.BinPow:
		if r.isConst && r.c == 2 {
			if a, b, ok := l.affine(); ok {
				return cform{a1: a, b1: b, g: gPow2, a2: 1, had: -1}, true
			}
		}
		return cform{}, false
	case matrix.BinMax:
		if l.isConst {
			l, r = r, l
		}
		if r.isConst {
			if a, b, ok := l.affine(); ok {
				return cform{a1: a, b1: b, g: gRelu, gp: r.c, a2: 1, had: -1}, true
			}
		}
		return cform{}, false
	}
	return cform{}, false
}

// combineAffine folds l + sign·r when both sides are plain affine forms
// of the main input: (La·x+Lb) ± (Ra·x+Rb) = (La±Ra)·x + (Lb±Rb).
func combineAffine(l, r cform, sign float64) (cform, bool) {
	la, lb, okL := l.affine()
	ra, rb, okR := r.affine()
	if !okL || !okR {
		return cform{}, false
	}
	return cform{a1: la + sign*ra, b1: lb + sign*rb, a2: 1, had: -1}, true
}

// hadamard matches affine(x) · S where side is a flat cell-access side.
func hadamard(expr, side *CNode) (cform, bool) {
	if side.Kind != NodeSide || side.Access != AccessCell {
		return cform{}, false
	}
	f, ok := normalizeCell(expr)
	if !ok || f.isConst {
		return cform{}, false
	}
	a, b, ok := f.affine()
	if !ok {
		return cform{}, false
	}
	return cform{a1: a, b1: b, a2: 1, had: side.Side}, true
}

// rootFingerprint renders the canonical class + parameter string for one
// cell-bound root in its output context. cell is the root's output kind and
// agg its aggregation function (ignored for CellNoAgg). The second return
// is false when the root does not match any specialized shape.
func rootFingerprint(root *CNode, cell CellType, agg matrix.AggOp) (string, bool) {
	f, ok := normalizeCell(root)
	if !ok || f.isConst {
		return "", false
	}
	switch cell {
	case CellNoAgg:
		return fmt.Sprintf("%s(%s)", mapClass(f), f.params()), true
	case CellFullAgg, CellRowAgg:
		cls, ok := aggClass(f, agg)
		if !ok {
			return "", false
		}
		prefix := "agg"
		if cell == CellRowAgg {
			prefix = "rowagg"
		}
		return fmt.Sprintf("%s.%s(%s)", prefix, cls, f.params()), true
	case CellColAgg:
		if _, _, ok := f.affine(); !ok || agg != matrix.AggSum {
			return "", false
		}
		return fmt.Sprintf("colsums(%s)", f.params()), true
	}
	return "", false
}

func mapClass(f cform) string {
	if f.had >= 0 {
		return "cell.hadamard"
	}
	if f.g == gNone {
		return "cell.axpy"
	}
	return "cell." + gNames[f.g]
}

// aggClass classifies a sum-style aggregation over the normal form. Only
// shapes whose partial sums combine by addition with a per-chunk closed
// form qualify; min/max and exotic bodies fall back.
func aggClass(f cform, agg matrix.AggOp) (string, bool) {
	switch agg {
	case matrix.AggSum:
		switch {
		case f.had >= 0 && f.g == gNone:
			return "dot", true
		case f.g == gNone:
			return "sum", true
		case f.g == gPow2:
			return "sumsq", true
		}
	case matrix.AggSumSq:
		// Σ f² needs f itself affine to stay closed-form.
		if _, _, ok := f.affine(); ok {
			return "sumsq", true
		}
	}
	return "", false
}

func (f cform) params() string {
	var b strings.Builder
	fmt.Fprintf(&b, "a1=%g,b1=%g,a2=%g,b2=%g", f.a1, f.b1, f.a2, f.b2)
	if f.g != gNone {
		fmt.Fprintf(&b, ",g=%s", gNames[f.g])
	}
	if f.g == gRelu {
		fmt.Fprintf(&b, ",gp=%g", f.gp)
	}
	if f.had >= 0 {
		fmt.Fprintf(&b, ",S=%d", f.had)
	}
	return b.String()
}

// Fingerprint returns the canonical structural fingerprint of the plan:
// the template header plus one classified shape per output root. Roots that
// match no specialized shape render as generic:<hash>, so two structurally
// different plans never share a fingerprint (up to plan-hash collisions)
// while equal shapes with equal folded constants do.
func (p *Plan) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", p.Type)
	switch p.Type {
	case TemplateCell:
		fp, ok := rootFingerprint(p.Root, p.Cell, p.AggOp)
		if !ok {
			return p.genericFingerprint()
		}
		fmt.Fprintf(&b, "[%s]:%s", p.Cell, fp)
	case TemplateMAgg:
		fmt.Fprintf(&b, ":")
		for i, r := range p.Roots {
			fp, ok := rootFingerprint(r, CellFullAgg, p.AggOps[i])
			if !ok {
				return p.genericFingerprint()
			}
			if i > 0 {
				b.WriteString(";")
			}
			b.WriteString(fp)
		}
	case TemplateHorizontal:
		fmt.Fprintf(&b, ":")
		for i, r := range p.Roots {
			fp, ok := rootFingerprint(r, p.HKinds[i], p.AggOps[i])
			if !ok {
				return p.genericFingerprint()
			}
			if i > 0 {
				b.WriteString(";")
			}
			fmt.Fprintf(&b, "%s/%s", p.HKinds[i], fp)
		}
	default:
		return p.genericFingerprint()
	}
	return b.String()
}

// genericFingerprint is the fallback identity for plans outside the
// specialized library: unique per plan structure, never chunk-dispatched.
func (p *Plan) genericFingerprint() string {
	return fmt.Sprintf("generic:%016x", p.Hash())
}
