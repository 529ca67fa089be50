package dml

import (
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/runtime"
)

// blockCompiler translates one statement block into a HOP DAG, using the
// current symbol table for input dimensions (sizes are known at block
// compile time, mirroring SystemML's dynamic recompilation).
//
// The DAG is a function of the statements and of what the compiler learns
// from the symbol table, and it reaches the symbol table only through
// varHop, dims and site, which append what they learned to log (access.go):
// a later execution of the same statements that replays the log against its
// own symbol table and finds every observation unchanged would compile the
// same DAG, and takes the cached plan instead.
type blockCompiler struct {
	d         *hop.DAG
	env       runtime.Env
	nnzHints  map[string]int64    // caller-supplied sparsity estimates (BindWithNnz)
	vars      map[string]*hop.Hop // assigned within the block
	reads     map[string]*hop.Hop
	constVals map[string]Expr // block-local compile-time constants, resolved (constEval)
	log       []access
}

func newBlockCompiler(env runtime.Env, nnzHints map[string]int64) *blockCompiler {
	return &blockCompiler{
		d:         hop.NewDAG(),
		env:       env,
		nnzHints:  nnzHints,
		vars:      map[string]*hop.Hop{},
		reads:     map[string]*hop.Hop{},
		constVals: map[string]Expr{},
	}
}

func (c *blockCompiler) assign(name string, e Expr) error {
	h, err := c.compile(e)
	if err != nil {
		return err
	}
	// Track compile-time constant scalars so later index bounds and
	// datagen arguments in the same block can resolve them.
	if v := c.constEval(e); v != nil {
		c.constVals[name] = v
	} else {
		delete(c.constVals, name)
	}
	c.vars[name] = h
	c.d.Output(name, h)
	return nil
}

func (c *blockCompiler) varHop(name string, line int) (*hop.Hop, error) {
	if h, ok := c.vars[name]; ok {
		return h, nil
	}
	if h, ok := c.reads[name]; ok {
		return h, nil
	}
	m, ok := c.env[name]
	if !ok {
		return nil, &UnboundVarError{Line: line, Name: name}
	}
	// A caller-supplied nonzero hint (BindWithNnz) overrides the exact
	// scan; the re-optimization check drops hints the runtime observes to
	// be wrong, so a bad estimate costs at most one mis-planned execution.
	nnz := int64(m.Nnz())
	hint, hinted := c.nnzHints[name]
	if hinted {
		nnz = hint
	}
	h := c.d.Read(name, int64(m.Rows), int64(m.Cols), nnz)
	c.reads[name] = h
	a := access{kind: accShape, name: name, rows: m.Rows, cols: m.Cols, bound: true, hinted: hinted, hint: hint}
	a.sparse, a.bucket = sparsityClass(m.Rows, m.Cols, nnz)
	c.log = append(c.log, a)
	return h, nil
}

// dims probes the symbol table for a variable's dimensions on behalf of
// constEval (is it a scalar? how many rows?).
func (c *blockCompiler) dims(name string) (rows, cols int, ok bool) {
	m, ok := c.env[name]
	if ok {
		rows, cols = m.Rows, m.Cols
	}
	for i := range c.log {
		if a := &c.log[i]; a.name == name && (a.kind == accShape || a.kind == accDims) {
			return rows, cols, ok
		}
	}
	c.log = append(c.log, access{kind: accDims, name: name, rows: rows, cols: cols, bound: ok})
	return rows, cols, ok
}

// site resolves the constant a datagen argument or an index bound needs to
// its value. A constant that depends on the symbol table is logged with it.
func (c *blockCompiler) site(e Expr) (float64, bool) {
	r := c.constEval(e)
	if r == nil {
		return 0, false
	}
	v, _ := evalConst(r, c.env)
	if _, lit := r.(*Num); !lit {
		c.log = append(c.log, access{kind: accConst, lo: r, value: v})
	}
	return v, true
}

var binOps = map[string]matrix.BinOp{
	"+": matrix.BinAdd, "-": matrix.BinSub, "*": matrix.BinMul,
	"/": matrix.BinDiv, "^": matrix.BinPow,
	"<": matrix.BinLt, "<=": matrix.BinLe, ">": matrix.BinGt,
	">=": matrix.BinGe, "==": matrix.BinEq, "!=": matrix.BinNeq,
	"&": matrix.BinAnd, "&&": matrix.BinAnd, "|": matrix.BinOr, "||": matrix.BinOr,
}

var unaryCalls = map[string]matrix.UnOp{
	"exp": matrix.UnExp, "log": matrix.UnLog, "sqrt": matrix.UnSqrt,
	"abs": matrix.UnAbs, "sign": matrix.UnSign, "round": matrix.UnRound,
	"floor": matrix.UnFloor, "ceil": matrix.UnCeil, "sigmoid": matrix.UnSigmoid,
}

func (c *blockCompiler) compile(e Expr) (*hop.Hop, error) {
	switch n := e.(type) {
	case *Num:
		return c.d.Lit(n.Value), nil
	case *Ident:
		return c.varHop(n.Name, n.Line)
	case *BinExpr:
		if n.Op == "%*%" {
			l, err := c.compile(n.L)
			if err != nil {
				return nil, err
			}
			r, err := c.compile(n.R)
			if err != nil {
				return nil, err
			}
			if l.Cols != r.Rows {
				return nil, shapeErrf(n.Line, "%%*%% shape mismatch %dx%d vs %dx%d",
					l.Rows, l.Cols, r.Rows, r.Cols)
			}
			return c.d.MatMult(l, r), nil
		}
		op, ok := binOps[n.Op]
		if !ok {
			return nil, parseErrf(n.Line, "unsupported operator %q", n.Op)
		}
		l, err := c.compile(n.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(n.R)
		if err != nil {
			return nil, err
		}
		return c.d.Binary(op, l, r), nil
	case *UnExpr:
		in, err := c.compile(n.E)
		if err != nil {
			return nil, err
		}
		if n.Op == "-" {
			return c.d.Unary(matrix.UnNeg, in), nil
		}
		return c.d.Unary(matrix.UnNot, in), nil
	case *Call:
		return c.compileCall(n)
	case *IndexExpr:
		return c.compileIndex(n)
	case *Str:
		return nil, parseErrf(0, "string literal outside print")
	}
	return nil, parseErrf(0, "unsupported expression %T", e)
}

func (c *blockCompiler) compileCall(n *Call) (*hop.Hop, error) {
	if op, ok := unaryCalls[n.Name]; ok {
		in, err := c.oneArg(n)
		if err != nil {
			return nil, err
		}
		return c.d.Unary(op, in), nil
	}
	switch n.Name {
	case "sum", "mean":
		in, err := c.oneArg(n)
		if err != nil {
			return nil, err
		}
		if in.IsScalar() {
			return in, nil
		}
		op := matrix.AggSum
		if n.Name == "mean" {
			op = matrix.AggMean
		}
		return c.d.Agg(op, matrix.DirAll, in), nil
	case "rowSums", "colSums", "rowMeans", "colMeans", "rowMaxs", "colMaxs", "rowMins", "colMins":
		in, err := c.oneArg(n)
		if err != nil {
			return nil, err
		}
		dir := matrix.DirRow
		if n.Name[0] == 'c' {
			dir = matrix.DirCol
		}
		op := matrix.AggSum
		switch {
		case n.Name == "rowMeans" || n.Name == "colMeans":
			op = matrix.AggMean
		case n.Name == "rowMaxs" || n.Name == "colMaxs":
			op = matrix.AggMax
		case n.Name == "rowMins" || n.Name == "colMins":
			op = matrix.AggMin
		}
		return c.d.Agg(op, dir, in), nil
	case "min", "max":
		op := matrix.AggMin
		bop := matrix.BinMin
		if n.Name == "max" {
			op, bop = matrix.AggMax, matrix.BinMax
		}
		if len(n.Args) == 2 {
			l, err := c.compile(n.Args[0])
			if err != nil {
				return nil, err
			}
			r, err := c.compile(n.Args[1])
			if err != nil {
				return nil, err
			}
			return c.d.Binary(bop, l, r), nil
		}
		in, err := c.oneArg(n)
		if err != nil {
			return nil, err
		}
		return c.d.Agg(op, matrix.DirAll, in), nil
	case "nrow", "ncol":
		in, err := c.oneArg(n)
		if err != nil {
			return nil, err
		}
		if n.Name == "nrow" {
			return c.d.Lit(float64(in.Rows)), nil
		}
		return c.d.Lit(float64(in.Cols)), nil
	case "t":
		in, err := c.oneArg(n)
		if err != nil {
			return nil, err
		}
		return c.d.Transpose(in), nil
	case "rowIndexMax":
		in, err := c.oneArg(n)
		if err != nil {
			return nil, err
		}
		return c.d.RowIndexMaxOp(in), nil
	case "cbind", "rbind":
		if len(n.Args) != 2 {
			return nil, parseErrf(n.Line, "%s needs 2 arguments", n.Name)
		}
		l, err := c.compile(n.Args[0])
		if err != nil {
			return nil, err
		}
		r, err := c.compile(n.Args[1])
		if err != nil {
			return nil, err
		}
		if n.Name == "cbind" {
			return c.d.CBindOp(l, r), nil
		}
		return c.d.RBindOp(l, r), nil
	case "cumsum":
		in, err := c.oneArg(n)
		if err != nil {
			return nil, err
		}
		return c.d.CumsumOp(in), nil
	case "diag":
		in, err := c.oneArg(n)
		if err != nil {
			return nil, err
		}
		return c.d.DiagOp(in), nil
	case "as.scalar", "as.matrix", "as.double", "as.integer":
		return c.oneArg(n)
	case "matrix":
		v, err := c.constArg(n, 0, "")
		if err != nil {
			return nil, err
		}
		rows, err := c.constArg(n, -1, "rows")
		if err != nil {
			return nil, err
		}
		cols, err := c.constArg(n, -1, "cols")
		if err != nil {
			return nil, err
		}
		return c.d.FillGen(int64(rows), int64(cols), v), nil
	case "rand":
		rows, err := c.constArg(n, -1, "rows")
		if err != nil {
			return nil, err
		}
		cols, err := c.constArg(n, -1, "cols")
		if err != nil {
			return nil, err
		}
		sp := c.constArgOr(n, "sparsity", 1)
		lo := c.constArgOr(n, "min", 0)
		hi := c.constArgOr(n, "max", 1)
		seed := c.constArgOr(n, "seed", 7)
		return c.d.Rand(int64(rows), int64(cols), sp, lo, hi, int64(seed)), nil
	case "seq":
		if len(n.Args) < 2 {
			return nil, parseErrf(n.Line, "seq needs from, to")
		}
		from, ok1 := c.site(n.Args[0])
		to, ok2 := c.site(n.Args[1])
		incr := 1.0
		ok3 := true
		if len(n.Args) > 2 {
			incr, ok3 = c.site(n.Args[2])
		}
		if !ok1 || !ok2 || !ok3 {
			return nil, parseErrf(n.Line, "seq arguments must be compile-time constants")
		}
		g := c.d.FillGen(int64((to-from)/incr)+1, 1, 0)
		g.Gen = hop.GenSeq
		g.GenArgs = []float64{from, to, incr}
		return g, nil
	}
	return nil, parseErrf(n.Line, "unknown function %q", n.Name)
}

func (c *blockCompiler) oneArg(n *Call) (*hop.Hop, error) {
	if len(n.Args) != 1 {
		return nil, parseErrf(n.Line, "%s needs 1 argument", n.Name)
	}
	return c.compile(n.Args[0])
}

func (c *blockCompiler) constArg(n *Call, pos int, name string) (float64, error) {
	var e Expr
	if name != "" {
		e = n.Named[name]
	}
	if e == nil && pos >= 0 && pos < len(n.Args) {
		e = n.Args[pos]
	}
	if e == nil {
		return 0, parseErrf(n.Line, "%s missing argument %s", n.Name, name)
	}
	v, ok := c.site(e)
	if !ok {
		return 0, parseErrf(n.Line, "argument %s of %s must be a compile-time constant", name, n.Name)
	}
	return v, nil
}

func (c *blockCompiler) constArgOr(n *Call, name string, def float64) float64 {
	e := n.Named[name]
	if e == nil {
		return def
	}
	if v, ok := c.site(e); ok {
		return v
	}
	return def
}

// constEval resolves a compile-time scalar constant to an expression over
// literals and the scalars bound in the environment, with the block's own
// constants and every nrow/ncol substituted and literal arithmetic folded: a
// *Num, or *Ident, negation and binOps arithmetic over them. It returns nil
// when e is not constant. The value is evalConst's, taken when a site needs
// it, so a constant that is only passed on costs a later execution nothing.
func (c *blockCompiler) constEval(e Expr) Expr {
	switch n := e.(type) {
	case *Num:
		return n
	case *Ident:
		if v, ok := c.constVals[n.Name]; ok {
			return v
		}
		if h, ok := c.vars[n.Name]; ok {
			if h.Kind == hop.OpLiteral {
				return &Num{Value: h.Value}
			}
			return nil
		}
		if rows, cols, ok := c.dims(n.Name); ok && rows == 1 && cols == 1 {
			return n
		}
	case *UnExpr:
		if n.Op != "-" {
			return nil
		}
		v := c.constEval(n.E)
		if lit, ok := v.(*Num); ok {
			return &Num{Value: -lit.Value}
		}
		if v != nil {
			return &UnExpr{Op: "-", E: v}
		}
	case *BinExpr:
		l, r := c.constEval(n.L), c.constEval(n.R)
		op, ok := binOps[n.Op]
		if l == nil || r == nil || !ok {
			return nil
		}
		if lv, ok := l.(*Num); ok {
			if rv, ok := r.(*Num); ok {
				return &Num{Value: op.Apply(lv.Value, rv.Value)}
			}
		}
		return &BinExpr{Op: n.Op, L: l, R: r}
	case *Call:
		if (n.Name != "nrow" && n.Name != "ncol") || len(n.Args) != 1 {
			return nil
		}
		id, ok := n.Args[0].(*Ident)
		if !ok {
			return nil
		}
		var rows, cols int
		if h, ok := c.vars[id.Name]; ok {
			rows, cols = int(h.Rows), int(h.Cols)
		} else if rows, cols, ok = c.dims(id.Name); !ok {
			return nil
		}
		if n.Name == "nrow" {
			return &Num{Value: float64(rows)}
		}
		return &Num{Value: float64(cols)}
	}
	return nil
}

// evalConst is the value of a constant constEval resolved, under env.
func evalConst(e Expr, env runtime.Env) (float64, bool) {
	switch n := e.(type) {
	case *Num:
		return n.Value, true
	case *Ident:
		if m, ok := env[n.Name]; ok && m.Rows == 1 && m.Cols == 1 {
			return m.Scalar(), true
		}
	case *UnExpr:
		v, ok := evalConst(n.E, env)
		return -v, ok
	case *BinExpr:
		l, ok1 := evalConst(n.L, env)
		r, ok2 := evalConst(n.R, env)
		return binOps[n.Op].Apply(l, r), ok1 && ok2
	}
	return 0, false
}

func (c *blockCompiler) compileIndex(n *IndexExpr) (*hop.Hop, error) {
	x, err := c.compile(n.X)
	if err != nil {
		return nil, err
	}
	// Bounds are 1-based inclusive; nil selects the full range. The column
	// bounds are sites; the row bounds are logged as one access, which lets
	// a cached plan take them as parameters where they select a proper part
	// of the rows (access.go).
	cl, ok1 := 1.0, true
	if n.CL != nil {
		cl, ok1 = c.site(n.CL)
	}
	cu, ok2 := float64(x.Cols), true
	if n.CU != nil {
		cu, ok2 = c.site(n.CU)
	}
	var lo, hi Expr = &Num{Value: 1}, &Num{Value: float64(x.Rows)}
	if n.RL != nil {
		lo = c.constEval(n.RL)
	}
	if n.RU != nil {
		hi = c.constEval(n.RU)
	}
	if !ok1 || !ok2 || lo == nil || hi == nil {
		return nil, shapeErrf(n.Line, "index bounds must be compile-time constants")
	}
	a := access{kind: accRows, lo: lo, hi: hi, of: x.Rows}
	a.rowRange(c.env)
	a.extent = a.ru - a.rl
	a.same = sameRows(c.log, a.rl, a.ru)
	if n.RL != nil || n.RU != nil {
		c.log = append(c.log, a)
	}
	return c.d.Index(x, a.rl, a.ru, int64(cl)-1, int64(cu)), nil
}
