package codegen

import (
	"sysml/internal/cplan"
	"sysml/internal/hop"
	"sysml/internal/matrix"
)

// applyFusedPatterns implements the Fused baseline: SystemML's hand-coded
// fused operators, which cover a fixed set of two-to-three-operator
// patterns (paper §1, §5 baselines): mmchain t(X)%*%(X%*%v), ternary
// aggregates sum(X*Y) / sum(X*Y*Z) / sum(X^2), and the sparsity-exploiting
// weighted patterns wdivmm ((X!=0)*(UV'))%*%V and wsloss
// sum(X*log(UV'+eps)). Anything else runs as basic operators.
func applyFusedPatterns(d *hop.DAG, cfg *Config, cache *PlanCache, stats *Stats) {
	fc := &fusedCompiler{d: d, cfg: cfg, cache: cache, stats: stats}
	for _, h := range hop.TopoOrder(d.Roots()) {
		fc.try(h)
	}
}

type fusedCompiler struct {
	d     *hop.DAG
	cfg   *Config
	cache *PlanCache
	stats *Stats
}

func (f *fusedCompiler) compileAndSplice(h *hop.Hop, p *cplan.Plan, inputs []*hop.Hop) bool {
	op, _, err := f.cache.GetOrCompile(p, f.cfg, func() string { return "FusedOp" })
	if err != nil {
		return false
	}
	f.stats.CPlansConstructed++
	spoof := f.d.NewSpoof(p.Type.String(), op, h.Rows, h.Cols, h.Nnz, inputs...)
	spoof.ExecType = h.ExecType
	splice(f.d, h, spoof)
	return true
}

func (f *fusedCompiler) try(h *hop.Hop) bool {
	return f.tryMMChain(h) || f.tryTernaryAgg(h) || f.tryWdivmm(h) || f.tryWsloss(h)
}

// tryMMChain matches t(X) %*% (X %*% v), the hand-coded matrix-vector
// multiplication chain (vectors only, per §5.2 Fig. 8g discussion).
func (f *fusedCompiler) tryMMChain(h *hop.Hop) bool {
	if h.Kind != hop.OpMatMult || h.Inputs[0].Kind != hop.OpTranspose {
		return false
	}
	inner := h.Inputs[1]
	if inner.Kind != hop.OpMatMult || inner.Cols != 1 {
		return false
	}
	x := h.Inputs[0].Inputs[0]
	if inner.Inputs[0] != x || inner.NumConsumers() != 1 {
		return false
	}
	v := inner.Inputs[1]
	n := int(x.Cols)
	vSide := cplan.Side(0, cplan.AccessRow, n)
	q := cplan.Agg(matrix.AggSum, cplan.Binary(matrix.BinMul, cplan.Main(n), vSide))
	p := &cplan.Plan{Type: cplan.TemplateRow, Row: cplan.RowColAggT, Root: q, MainWidth: n, NumSides: 1}
	return f.compileAndSplice(h, p, []*hop.Hop{x, v})
}

// tryTernaryAgg matches sum(X*Y), sum(X*Y*Z) and sum(X^2).
func (f *fusedCompiler) tryTernaryAgg(h *hop.Hop) bool {
	if h.Kind != hop.OpAggUnary || h.AggDir != matrix.DirAll || h.AggOp != matrix.AggSum {
		return false
	}
	e := h.Inputs[0]
	if e.NumConsumers() != 1 || e.IsScalar() {
		return false
	}
	// sum(X^2)
	if e.Kind == hop.OpBinary && e.BinOp == matrix.BinPow &&
		e.Inputs[1].Kind == hop.OpLiteral && e.Inputs[1].Value == 2 &&
		e.Inputs[0].Kind == hop.OpData {
		x := e.Inputs[0]
		root := cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Main(0))
		p := &cplan.Plan{Type: cplan.TemplateCell, Cell: cplan.CellFullAgg,
			AggOp: matrix.AggSum, Root: root, SparseSafe: true}
		return f.compileAndSplice(h, p, []*hop.Hop{x})
	}
	if e.Kind != hop.OpBinary || e.BinOp != matrix.BinMul {
		return false
	}
	a, b := e.Inputs[0], e.Inputs[1]
	sameShape := func(p, q *hop.Hop) bool { return p.Rows == q.Rows && p.Cols == q.Cols }
	// sum(X*Y*Z): one side is itself a single-consumer multiply.
	if a.Kind == hop.OpBinary && a.BinOp == matrix.BinMul && a.NumConsumers() == 1 &&
		isLeafLike(a.Inputs[0]) && isLeafLike(a.Inputs[1]) && isLeafLike(b) &&
		sameShape(a.Inputs[0], b) {
		root := cplan.Binary(matrix.BinMul,
			cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Side(0, cplan.AccessCell, 0)),
			cplan.Side(1, cplan.AccessCell, 0))
		p := &cplan.Plan{Type: cplan.TemplateCell, Cell: cplan.CellFullAgg,
			AggOp: matrix.AggSum, Root: root, SparseSafe: true, NumSides: 2}
		return f.compileAndSplice(h, p, []*hop.Hop{a.Inputs[0], a.Inputs[1], b})
	}
	// sum(X*Y)
	if isLeafLike(a) && isLeafLike(b) && sameShape(a, b) {
		root := cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Side(0, cplan.AccessCell, 0))
		p := &cplan.Plan{Type: cplan.TemplateCell, Cell: cplan.CellFullAgg,
			AggOp: matrix.AggSum, Root: root, SparseSafe: true, NumSides: 1}
		return f.compileAndSplice(h, p, []*hop.Hop{a, b})
	}
	return false
}

func isLeafLike(h *hop.Hop) bool {
	return h.Kind == hop.OpData || h.Kind == hop.OpDataGen || h.Kind == hop.OpLiteral ||
		h.Kind == hop.OpSpoof
}

// tryWdivmm matches ((X != 0) * (U %*% t(V))) %*% V, the hand-coded
// weighted divide-matrix-mult family used by ALS (Expression 1).
func (f *fusedCompiler) tryWdivmm(h *hop.Hop) bool {
	if h.Kind != hop.OpMatMult {
		return false
	}
	mul, v := h.Inputs[0], h.Inputs[1]
	if mul.Kind != hop.OpBinary || mul.BinOp != matrix.BinMul || mul.NumConsumers() != 1 {
		return false
	}
	mask, uvt := mul.Inputs[0], mul.Inputs[1]
	if uvt.Kind != hop.OpMatMult {
		mask, uvt = uvt, mask
	}
	if uvt.Kind != hop.OpMatMult || uvt.NumConsumers() != 1 ||
		uvt.Inputs[1].Kind != hop.OpTranspose || uvt.Inputs[1].Inputs[0] != v {
		return false
	}
	u := uvt.Inputs[0]
	if u.Cols > outerMaxRank {
		return false
	}
	// Mask: X != 0 or plain X.
	var x *hop.Hop
	var root *cplan.CNode
	if mask.Kind == hop.OpBinary && mask.BinOp == matrix.BinNeq &&
		mask.Inputs[1].Kind == hop.OpLiteral && mask.Inputs[1].Value == 0 {
		x = mask.Inputs[0]
		root = cplan.Binary(matrix.BinMul,
			cplan.Binary(matrix.BinNeq, cplan.Main(0), cplan.Lit(0)), cplan.Dot())
	} else if mask.Rows == uvt.Rows && mask.Cols == uvt.Cols {
		x = mask
		root = cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Dot())
	} else {
		return false
	}
	p := &cplan.Plan{Type: cplan.TemplateOuter, Out: cplan.OuterRightMM,
		Root: root, SparseSafe: true}
	return f.compileAndSplice(h, p, []*hop.Hop{x, u, v})
}

// tryWsloss matches sum(X * log(U %*% t(V) + eps)), the hand-coded
// weighted-sigmoid/loss family (Fig. 1d, Fig. 8h).
func (f *fusedCompiler) tryWsloss(h *hop.Hop) bool {
	if h.Kind != hop.OpAggUnary || h.AggDir != matrix.DirAll || h.AggOp != matrix.AggSum {
		return false
	}
	mul := h.Inputs[0]
	if mul.Kind != hop.OpBinary || mul.BinOp != matrix.BinMul {
		return false
	}
	x, lg := mul.Inputs[0], mul.Inputs[1]
	if lg.Kind != hop.OpUnary {
		x, lg = lg, x
	}
	if lg.Kind != hop.OpUnary || lg.UnOp != matrix.UnLog {
		return false
	}
	add := lg.Inputs[0]
	var uvt *hop.Hop
	var eps float64
	if add.Kind == hop.OpBinary && add.BinOp == matrix.BinAdd &&
		add.Inputs[1].Kind == hop.OpLiteral {
		uvt, eps = add.Inputs[0], add.Inputs[1].Value
	} else {
		uvt, eps = add, 0
	}
	if uvt.Kind != hop.OpMatMult || uvt.Inputs[1].Kind != hop.OpTranspose {
		return false
	}
	u, v := uvt.Inputs[0], uvt.Inputs[1].Inputs[0]
	if u.Cols > outerMaxRank || x.Rows != uvt.Rows || x.Cols != uvt.Cols {
		return false
	}
	inner := cplan.Binary(matrix.BinAdd, cplan.Dot(), cplan.Lit(eps))
	root := cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Unary(matrix.UnLog, inner))
	p := &cplan.Plan{Type: cplan.TemplateOuter, Out: cplan.OuterAgg,
		Root: root, SparseSafe: true}
	return f.compileAndSplice(h, p, []*hop.Hop{x, u, v})
}
