package cplan

import (
	"fmt"
	"go/parser"
	"go/token"
	"strings"

	"sysml/internal/matrix"
)

// Render produces a readable Go source artifact for a fused operator,
// mirroring the generated Java classes of SystemML (paper §2.2 examples
// TMP4/TMP10/TMP25). The artifact is informational (every template executes
// its lowered register program; the scalar genexec text of Cell/MAgg/Outer
// shows the function that program computes per cell) and doubles as the
// input of the slow "javac"-analog compile path.
func Render(p *Plan, className string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by sysml codegen. Template %s.\n", p.Type)
	fmt.Fprintf(&b, "package spoofgen\n\n")
	switch p.Type {
	case TemplateCell:
		fmt.Fprintf(&b, "// %s extends SpoofCellwise(%s, sparseSafe=%v)\n", className, p.Cell, p.SparseSafe)
		fmt.Fprintf(&b, "func %s_genexec(a float64, b []SideInput, rix, cix int) float64 {\n", className)
		renderScalarBody(&b, p.Root)
		b.WriteString("}\n")
	case TemplateMAgg:
		fmt.Fprintf(&b, "// %s extends SpoofMultiAggregate(%v)\n", className, p.AggOps)
		for i, r := range p.Roots {
			fmt.Fprintf(&b, "func %s_genexec%d(a float64, b []SideInput, rix, cix int) float64 {\n", className, i)
			renderScalarBody(&b, r)
			b.WriteString("}\n")
		}
	case TemplateOuter:
		fmt.Fprintf(&b, "// %s extends SpoofOuterProduct(%s)\n", className, p.Out)
		fmt.Fprintf(&b, "func %s_genexec(a float64, u, v []float64, ui, vi, len, rix, cix int, b []SideInput) float64 {\n", className)
		renderScalarBody(&b, p.Root)
		b.WriteString("}\n")
	case TemplateHorizontal:
		fmt.Fprintf(&b, "// %s extends SpoofHorizontal(%v, %v)\n", className, p.HKinds, p.AggOps)
		for i, r := range p.Roots {
			fmt.Fprintf(&b, "func %s_genexec%d(a float64, b []SideInput, rix, cix int) float64 {\n", className, i)
			renderScalarBody(&b, r)
			b.WriteString("}\n")
		}
	case TemplateRow:
		fmt.Fprintf(&b, "// %s extends SpoofRowwise(%s, vectMem=%d)\n", className, p.Row, 0)
		fmt.Fprintf(&b, "func %s_genexecDense(a []float64, ai int, b []SideInput, c []float64, rix int) {\n", className)
		prog := compileRow(p)
		for i, in := range prog.Instrs {
			fmt.Fprintf(&b, "\t%s\n", renderRowInstr(i, in))
		}
		fmt.Fprintf(&b, "\t_ = TMP%d // result (%s)\n", prog.ResultReg, p.Row)
		b.WriteString("}\n")
	}
	return b.String()
}

func renderScalarBody(b *strings.Builder, root *CNode) {
	tmp := 0
	var walk func(n *CNode) string
	walk = func(n *CNode) string {
		var expr string
		switch n.Kind {
		case NodeLit:
			expr = fmt.Sprintf("%g", n.Value)
		case NodeMain:
			expr = "a"
		case NodeDot:
			expr = "dotProduct(u, v, ui, vi, len)"
		case NodeSide:
			switch n.Access {
			case AccessScalar:
				expr = fmt.Sprintf("getValue(b[%d], 0, 0)", n.Side)
			case AccessCol:
				expr = fmt.Sprintf("getValue(b[%d], rix)", n.Side)
			case AccessRow:
				expr = fmt.Sprintf("getValue(b[%d], 0, cix)", n.Side)
			default:
				expr = fmt.Sprintf("getValue(b[%d], n, rix, cix)", n.Side)
			}
		case NodeUnary:
			expr = fmt.Sprintf("%s(%s)", unFuncName(n.UnOp), walk(n.Children[0]))
		case NodeBinary:
			l, r := walk(n.Children[0]), walk(n.Children[1])
			if sym := binSymbol(n.BinOp); sym != "" {
				expr = fmt.Sprintf("%s %s %s", l, sym, r)
			} else {
				expr = fmt.Sprintf("%s(%s, %s)", binFuncName(n.BinOp), l, r)
			}
		default:
			expr = "0"
		}
		id := tmp
		tmp++
		fmt.Fprintf(b, "\tTMP%d := %s\n", id, expr)
		return fmt.Sprintf("TMP%d", id)
	}
	last := walk(root)
	fmt.Fprintf(b, "\treturn %s\n", last)
}

func renderRowInstr(i int, in RowInstr) string {
	switch in.Op {
	case RLoadSideRow:
		return fmt.Sprintf("TMP%d := getVector(b[%d].vals(rix))", in.Dst, in.Side)
	case RLoadSideVal:
		return fmt.Sprintf("TMP%d := getValue(b[%d], rix)", in.Dst, in.Side)
	case RLit:
		return fmt.Sprintf("TMP%d := %g", in.Dst, in.Scalar)
	case RBinVV:
		return fmt.Sprintf("TMP%d := vect%sWrite(TMP%d, TMP%d, 0, 0, len)", in.Dst, binCamel(in.BinOp), in.Src1, in.Src2)
	case RBinVS, RBinSV:
		return fmt.Sprintf("TMP%d := vect%sWrite(TMP%d, TMP%d, 0, len)", in.Dst, binCamel(in.BinOp), in.Src1, in.Src2)
	case RBinSS:
		return fmt.Sprintf("TMP%d := TMP%d %s TMP%d", in.Dst, in.Src1, binSymbolOr(in.BinOp), in.Src2)
	case RUnV:
		return fmt.Sprintf("TMP%d := vect%sWrite(TMP%d, 0, len)", in.Dst, unCamel(in.UnOp), in.Src1)
	case RUnS:
		return fmt.Sprintf("TMP%d := %s(TMP%d)", in.Dst, unFuncName(in.UnOp), in.Src1)
	case RAggV:
		return fmt.Sprintf("TMP%d := vect%s(TMP%d, 0, TMP%d_len)", in.Dst, aggCamel(in.AggOp), in.Src1, in.Src1)
	case RMatMul:
		return fmt.Sprintf("TMP%d := vectMatMult(TMP%d, b[%d].vals(rix), 0, 0, len)", in.Dst, in.Src1, in.Side)
	case RIdxV:
		return fmt.Sprintf("TMP%d := vectRixWrite(TMP%d, %d, %d)", in.Dst, in.Src1, in.CL, in.CU)
	}
	return fmt.Sprintf("// instr %d", i)
}

func binSymbol(op matrix.BinOp) string {
	switch op {
	case matrix.BinAdd:
		return "+"
	case matrix.BinSub:
		return "-"
	case matrix.BinMul:
		return "*"
	case matrix.BinDiv:
		return "/"
	}
	return ""
}

func binSymbolOr(op matrix.BinOp) string {
	if s := binSymbol(op); s != "" {
		return s
	}
	return "/*" + op.String() + "*/"
}

func binFuncName(op matrix.BinOp) string {
	return map[matrix.BinOp]string{
		matrix.BinPow: "pow", matrix.BinMin: "min", matrix.BinMax: "max",
		matrix.BinEq: "eq", matrix.BinNeq: "neq", matrix.BinLt: "lt",
		matrix.BinLe: "le", matrix.BinGt: "gt", matrix.BinGe: "ge",
		matrix.BinAnd: "and", matrix.BinOr: "or",
	}[op]
}

func binCamel(op matrix.BinOp) string {
	names := map[matrix.BinOp]string{
		matrix.BinAdd: "Plus", matrix.BinSub: "Minus", matrix.BinMul: "Mult",
		matrix.BinDiv: "Div", matrix.BinPow: "Pow", matrix.BinMin: "Min",
		matrix.BinMax: "Max", matrix.BinGt: "Greater", matrix.BinNeq: "NotEqual",
	}
	if n, ok := names[op]; ok {
		return n
	}
	return "Op"
}

func unFuncName(op matrix.UnOp) string { return op.String() }

func unCamel(op matrix.UnOp) string {
	s := op.String()
	return strings.ToUpper(s[:1]) + s[1:]
}

func aggCamel(op matrix.AggOp) string {
	s := op.String()
	return strings.ToUpper(s[:1]) + s[1:]
}

// CompileSlow is the "javac" analog: it renders the full source artifact,
// lexes and parses it with go/parser (structural validation of the
// generated code), and only then lowers the executable programs. The
// extra parse work makes this path substantially slower than Compile,
// mirroring javac vs janino in Figure 11.
func CompileSlow(p *Plan, className string) (*Operator, error) {
	src := Render(p, className)
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, className+".go", src, parser.ParseComments); err != nil {
		return nil, fmt.Errorf("cplan: generated source failed to parse: %w", err)
	}
	// Parse repeatedly to model javac's multi-pass analysis cost relative
	// to janino's single pass.
	for i := 0; i < 24; i++ {
		if _, err := parser.ParseFile(fset, className+".go", src, parser.AllErrors); err != nil {
			return nil, err
		}
	}
	op := Compile(p, className)
	return op, nil
}

// InterpretCell walks a cell body's CNode tree for one cell: main value a,
// Outer dot product dot, coordinates (rix, cix). It is the reference the
// register programs are tested against, and what the Fig. 10 experiment
// times as generated code that no longer JIT-compiles.
func InterpretCell(n *CNode, ctx *Ctx, a, dot float64, rix, cix int) float64 {
	switch n.Kind {
	case NodeLit:
		return n.Value
	case NodeMain:
		return a
	case NodeDot:
		return dot
	case NodeSide:
		switch n.Access {
		case AccessScalar:
			return ctx.SideScalars[n.Side]
		case AccessCol:
			return ctx.Sides[n.Side].Value(rix, 0)
		case AccessRow:
			return ctx.Sides[n.Side].Value(0, cix)
		default:
			return ctx.Sides[n.Side].Value(rix, cix)
		}
	case NodeUnary:
		return n.UnOp.Apply(InterpretCell(n.Children[0], ctx, a, dot, rix, cix))
	case NodeBinary:
		return n.BinOp.Apply(
			InterpretCell(n.Children[0], ctx, a, dot, rix, cix),
			InterpretCell(n.Children[1], ctx, a, dot, rix, cix))
	}
	return 0
}
