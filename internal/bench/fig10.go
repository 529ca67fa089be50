package bench

import (
	"fmt"

	"sysml/internal/cplan"
	"sysml/internal/matrix"
	"sysml/internal/par"
	"sysml/internal/runtime"
)

// cellFunc is a cell body as inlined generated code: one Go closure per
// CNode, called once per cell. The product does not execute bodies this way
// (every root is one register program); the assembler survives here as the
// comparator of Fig. 10.
type cellFunc func(ctx *cplan.Ctx, a float64, rix, cix int) float64

// inlineCell assembles the closure chain of a cell body.
func inlineCell(n *cplan.CNode) cellFunc {
	switch n.Kind {
	case cplan.NodeLit:
		v := n.Value
		return func(*cplan.Ctx, float64, int, int) float64 { return v }
	case cplan.NodeMain:
		return func(_ *cplan.Ctx, a float64, _, _ int) float64 { return a }
	case cplan.NodeSide:
		idx := n.Side
		switch n.Access {
		case cplan.AccessScalar:
			return func(ctx *cplan.Ctx, _ float64, _, _ int) float64 { return ctx.SideScalars[idx] }
		case cplan.AccessCol:
			return func(ctx *cplan.Ctx, _ float64, rix, _ int) float64 { return ctx.Sides[idx].Value(rix, 0) }
		case cplan.AccessRow:
			return func(ctx *cplan.Ctx, _ float64, _, cix int) float64 { return ctx.Sides[idx].Value(0, cix) }
		}
		return func(ctx *cplan.Ctx, _ float64, rix, cix int) float64 { return ctx.Sides[idx].Value(rix, cix) }
	case cplan.NodeUnary:
		in, op := inlineCell(n.Children[0]), n.UnOp
		return func(c *cplan.Ctx, a float64, ri, ci int) float64 { return op.Apply(in(c, a, ri, ci)) }
	case cplan.NodeBinary:
		l, r, op := inlineCell(n.Children[0]), inlineCell(n.Children[1]), n.BinOp
		switch op {
		case matrix.BinMul:
			return func(c *cplan.Ctx, a float64, ri, ci int) float64 { return l(c, a, ri, ci) * r(c, a, ri, ci) }
		case matrix.BinDiv:
			return func(c *cplan.Ctx, a float64, ri, ci int) float64 { return l(c, a, ri, ci) / r(c, a, ri, ci) }
		}
		return func(c *cplan.Ctx, a float64, ri, ci int) float64 { return op.Apply(l(c, a, ri, ci), r(c, a, ri, ci)) }
	}
	panic("bench: CNode kind not valid in a cell body")
}

// PerCellSum returns sum(f(X)) evaluated one cell at a time over a dense X,
// in parallel over rows: through the closure chain, or — interpreted, the
// analog of generated code past the JIT threshold — through
// cplan.InterpretCell, the tree-walking reference evaluator.
func PerCellSum(root *cplan.CNode, interpreted bool) func(x *matrix.Matrix, sides []*matrix.Matrix) float64 {
	fn := func(ctx *cplan.Ctx, a float64, rix, cix int) float64 {
		return cplan.InterpretCell(root, ctx, a, 0, rix, cix)
	}
	if !interpreted {
		fn = inlineCell(root)
	}
	return func(x *matrix.Matrix, sides []*matrix.Matrix) float64 {
		proto, d, cols := cplan.NewCtx(sides), x.Dense(), x.Cols
		nw, _ := par.Chunks(x.Rows, 64)
		partials := make([]float64, nw)
		par.ForIndexed(x.Rows, 64, func(w, lo, hi int) {
			ctx, acc := proto.Clone(), 0.0
			for i := lo; i < hi; i++ {
				for j, a := range d[i*cols : (i+1)*cols] {
					acc += fn(ctx, a, i, j)
				}
			}
			partials[w] += acc
		})
		var sum float64
		for _, v := range partials {
			sum += v
		}
		return sum
	}
}

func runtimeExecCell(op *cplan.Operator, x *matrix.Matrix) float64 {
	return runtime.ExecCellwise(op, x, nil).Scalar()
}

// Fig10Footprint reproduces Fig. 10: the impact of the instruction
// footprint on sum(f(X/rowSums(X))) where f chains n row operations X*i.
//
// Gen keeps the per-operator footprint small by calling shared vector
// primitives (one vector instruction per operation). Gen-inlined models
// fully inlined generated code: a per-cell closure chain (PerCellSum, a
// comparator private to this package). The JVM's 8 KB
// JIT threshold is modeled by a fallback to tree-walking interpretation
// beyond `jitThreshold` operations (Fig. 10a); disabling the threshold
// (Fig. 10b, -XX:-DontCompileHugeMethods) keeps closures at any size but
// still pays per-cell dispatch that grows with n.
func Fig10Footprint(o Options, jitThreshold int) *Table {
	title := "Fig 10a Instruction footprint (JIT threshold analog on)"
	if jitThreshold <= 0 {
		title = "Fig 10b Instruction footprint (threshold disabled)"
	}
	t := &Table{
		Title:   title,
		Columns: []string{"n row ops", "Gen", "Gen inlined"},
	}
	rows, cols := o.rows(20000), 100
	x := matrix.Rand(rows, cols, 1, 1, 2, 31)
	for _, n := range []int{1, 8, 16, 31, 32, 48, 64, 96, 128} {
		// Gen: Row template with a vector program of n vectMult ops over
		// X/rowSums(X), then a full aggregate.
		norm := cplan.Binary(matrix.BinDiv, cplan.Main(cols),
			cplan.Side(0, cplan.AccessCol, 0))
		chain := norm
		for i := 1; i <= n; i++ {
			chain = cplan.Binary(matrix.BinMul, chain, cplan.Lit(1+1/float64(i)))
		}
		rowPlan := &cplan.Plan{Type: cplan.TemplateRow, Row: cplan.RowFullAgg,
			Root: cplan.Agg(matrix.AggSum, chain), MainWidth: cols}
		rowOp := cplan.Compile(rowPlan, "TMP_Gen")
		rs := matrix.Agg(matrix.AggSum, matrix.DirRow, x)

		// Gen-inlined: the same function as one per-cell chain.
		cellChain := cplan.Binary(matrix.BinDiv, cplan.Main(0),
			cplan.Side(0, cplan.AccessCol, 0))
		for i := 1; i <= n; i++ {
			cellChain = cplan.Binary(matrix.BinMul, cellChain, cplan.Lit(1+1/float64(i)))
		}
		// Beyond the JIT threshold the generated method no longer compiles:
		// interpret the CNode tree per cell.
		inlined := PerCellSum(cellChain, jitThreshold > 0 && n > jitThreshold)

		gen := Median(o.Reps, func() {
			_ = runtime.ExecRowwise(rowOp, x, []*matrix.Matrix{rs}).Scalar()
		})
		inl := Median(o.Reps, func() {
			_ = inlined(x, []*matrix.Matrix{rs})
		})
		t.Add(fmt.Sprintf("%d", n), ms(gen), ms(inl))
	}
	return t
}
