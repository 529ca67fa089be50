package codegen

import (
	"fmt"
	"slices"
	"time"

	"sysml/internal/cplan"
	"sysml/internal/hop"
	"sysml/internal/matrix"
)

// constructor turns selected fusion plans into CPlans, compiles them (via
// the plan cache), and splices the resulting fused operators into the DAG.
type constructor struct {
	cfg   *Config
	memo  *Memo
	d     *hop.DAG
	q     map[Edge]bool
	cache *PlanCache
	stats *Stats
	rep   *PlanReport // optional EXPLAIN record (nil when not observing)

	coster *Coster // the choices of the model under q (Coster.choose)
	// wanted holds the hops the plan materializes, as construction finds
	// them: partition roots, the leaves of every built operator, the inputs
	// of every hop left a basic operator.
	wanted map[int64]bool
	// siblingMerged holds the members of the sibling groups combineSiblings
	// merged: the walk below must not build them again.
	siblingMerged map[int64]bool
}

func construct(d *hop.DAG, m *Memo, parts []*Partition, q map[Edge]bool,
	cfg *Config, cache *PlanCache, stats *Stats, rep *PlanReport) {
	// Siblings combine across partitions: their fusion opportunity is a
	// *shared input*, which creates no fusion reference and therefore no
	// partition connectivity.
	all := mergePartitions(parts)
	c := &constructor{
		cfg: cfg, memo: m, d: d, q: q, cache: cache, stats: stats, rep: rep,
		coster:        NewCoster(cfg, m, all),
		wanted:        map[int64]bool{},
		siblingMerged: map[int64]bool{},
	}
	c.coster.choose(q)
	order := hop.TopoOrder(d.Roots())
	c.combineSiblings(order)
	for _, r := range all.Roots {
		c.wanted[r] = true
	}
	// Consumers first: an operator that fuses a hop is built before the hop
	// is built (and spliced out of its consumers) as an operator of its own,
	// which a block output or a second, materializing consumer asks for.
	for i := len(order) - 1; i >= 0; i-- {
		if h := order[i]; c.wanted[h.ID] && !c.siblingMerged[h.ID] {
			c.build(h)
		}
	}
}

func (c *constructor) nextClass() string {
	return fmt.Sprintf("TMP%d", c.cache.NextClassID())
}

// build constructs a fused operator at a materialized hop when a valid
// entry is selected, and marks what the result reads as materialized.
func (c *constructor) build(h *hop.Hop) {
	// The cheapest candidate first; when its template cannot express the
	// region, the other templates' candidates (Coster.pickEntries).
	for _, p := range c.coster.pickEntries(h) {
		region := c.collect(h, p.e)
		if len(region.covered) < 2 {
			continue
		}
		if c.buildAndSplice(h, p.e, region) {
			c.want(region.leaves)
			return
		}
	}
	c.want(h.Inputs)
}

func (c *constructor) want(hops []*hop.Hop) {
	for _, h := range hops {
		c.wanted[h.ID] = true
	}
}

// region is the set of hops covered by one fused operator plus its
// materialized leaf inputs in deterministic first-encounter order.
type region struct {
	covered map[int64]bool
	leaves  []*hop.Hop
	leafSet map[int64]bool
}

func (r *region) covers(x *hop.Hop) bool { return r.covered[x.ID] }

func (r *region) addLeaf(h *hop.Hop) {
	if !r.leafSet[h.ID] {
		r.leafSet[h.ID] = true
		r.leaves = append(r.leaves, h)
	}
}

func (c *constructor) collect(h *hop.Hop, entry Entry) *region {
	r := &region{covered: map[int64]bool{}, leafSet: map[int64]bool{}}
	c.collectInto(h, entry, r)
	return r
}

func (c *constructor) collectInto(h *hop.Hop, entry Entry, r *region) {
	if r.covered[h.ID] {
		return
	}
	r.covered[h.ID] = true
	for j, in := range h.Inputs {
		if entry.Inputs[j] >= 0 && !c.q[Edge{h.ID, in.ID}] {
			if childEntry, ok := c.coster.contAt(in, entry.Type); ok {
				c.collectInto(in, childEntry, r)
				continue
			}
		}
		if in.Kind != hop.OpLiteral {
			r.addLeaf(in)
		}
	}
}

// buildAndSplice constructs the template-specific CPlan; on success it
// compiles the operator and splices a spoof HOP. Construction bails out
// (returning false) on patterns the backend cannot express, falling back to
// basic operators.
func (c *constructor) buildAndSplice(h *hop.Hop, entry Entry, r *region) bool {
	var plan *cplan.Plan
	var inputs []*hop.Hop
	switch entry.Type {
	case cplan.TemplateCell:
		plan, inputs = c.buildCellPlan(h, r)
	case cplan.TemplateRow:
		plan, inputs = c.buildRowPlan(h, r)
	case cplan.TemplateOuter:
		plan, inputs = c.buildOuterPlan(h, r)
	case cplan.TemplateMAgg:
		// Single MAgg plans are constructed as Cell full aggregates.
		plan, inputs = c.buildCellPlan(h, r)
	}
	if plan == nil {
		return false
	}
	op, hit, err := c.compile(plan)
	if err != nil {
		return false
	}
	c.record(plan.Type.String(), op, len(inputs), h.Rows, h.Cols, hit)
	spoof := c.d.NewSpoof(plan.Type.String(), op, h.Rows, h.Cols, h.Nnz, inputs...)
	spoof.ExecType = h.ExecType
	c.predictSpoof(spoof, entry.Type, []*region{r})
	splice(c.d, h, spoof)
	return true
}

func (c *constructor) compile(p *cplan.Plan) (*cplan.Operator, bool, error) {
	start := time.Now()
	op, hit, err := c.cache.GetOrCompile(p, c.cfg, c.nextClass)
	if err != nil {
		return nil, false, err
	}
	c.stats.CPlansConstructed++
	if hit {
		c.stats.CacheHits++
	} else {
		c.stats.OperatorsCompiled++
		c.stats.CompileTime += time.Since(start)
	}
	return op, hit, nil
}

// record appends one constructed operator to the EXPLAIN report.
func (c *constructor) record(template string, op *cplan.Operator, inputs int, rows, cols int64, hit bool) {
	if c.rep == nil {
		return
	}
	c.rep.Operators = append(c.rep.Operators, OperatorReport{
		Template: template, ClassName: op.ClassName, NumInputs: inputs,
		Rows: rows, Cols: cols, CacheHit: hit,
		CompressedOK: op.Compressed, CompressedWhy: op.NotCompressed,
	})
}

// splice puts spoof in the place of h in d: every consumer of h and every
// output that names it reads spoof instead.
func splice(d *hop.DAG, h, spoof *hop.Hop) {
	for _, p := range append([]*hop.Hop(nil), h.Parents...) {
		p.ReplaceInput(h, spoof)
	}
	for _, name := range d.OutputNames() {
		if d.Outputs[name] == h {
			d.Outputs[name] = spoof
		}
	}
}

// ------------------------------------------------------------- Cell ----

type sideEnv struct {
	sides   []*hop.Hop
	sideIdx map[int64]int
}

func (e *sideEnv) idx(h *hop.Hop) int {
	if i, ok := e.sideIdx[h.ID]; ok {
		return i
	}
	i := len(e.sides)
	e.sides = append(e.sides, h)
	e.sideIdx[h.ID] = i
	return i
}

func newSideEnv() *sideEnv { return &sideEnv{sideIdx: map[int64]int{}} }

func accessFor(x *hop.Hop, outRows, outCols int64) (cplan.SideAccess, bool) {
	switch {
	case x.IsScalar():
		return cplan.AccessScalar, true
	case x.Rows == outRows && x.Cols == outCols:
		return cplan.AccessCell, true
	case x.Cols == 1 && x.Rows == outRows:
		return cplan.AccessCol, true
	case x.Rows == 1 && x.Cols == outCols:
		return cplan.AccessRow, true
	}
	return 0, false
}

func (c *constructor) buildCellPlan(h *hop.Hop, r *region) (*cplan.Plan, []*hop.Hop) {
	// Root: optional aggregation on top of the cell expression.
	cellType := cplan.CellNoAgg
	aggOp := matrix.AggSum
	exprRoot := h
	if h.Kind == hop.OpAggUnary {
		cellType, aggOp, exprRoot = cellAggType(h.AggDir), h.AggOp, h.Inputs[0]
		if !r.covered[exprRoot.ID] {
			return nil, nil
		}
	}
	main := operatorMain(cplan.TemplateCell, h, nil, r, r.leaves)
	if main == nil {
		return nil, nil
	}
	b := newCellBody(main, nil, main.Rows, main.Cols)
	root, ok := b.build(exprRoot, r)
	if !ok {
		return nil, nil
	}
	plan := &cplan.Plan{
		Type:       cplan.TemplateCell,
		Cell:       cellType,
		AggOp:      aggOp,
		Root:       root,
		NumSides:   len(b.env.sides),
		SparseSafe: cplan.ProbeSparseSafe(root),
	}
	return plan, b.inputs()
}

// cellAggType is the kind of cell operator that aggregates in direction dir.
func cellAggType(dir matrix.AggDir) cplan.CellType {
	switch dir {
	case matrix.DirRow:
		return cplan.CellRowAgg
	case matrix.DirCol:
		return cplan.CellColAgg
	}
	return cplan.CellFullAgg
}

// cover is the set of hops one fused operator covers: a region under
// construction, or the operator the plan search walks (Coster).
type cover interface{ covers(x *hop.Hop) bool }

// operatorMain is the main input of the fused operator of template t rooted
// at h, the one rule of the builders, the plan search (Coster.open) and the
// cost audit (predictSpoof): the input the operator iterates over and whose
// sparsity it exploits. Row walks X of t(X) %*% W and t(cumsum(t(X))), else
// the leaf of most cells with the iterated row count; Outer reads an input of
// its opening product's shape; any other a leaf of its cell space's shape,
// sparse first. leaves are in the order the operator's walk meets them.
// nil where the template builds no operator.
func operatorMain(t cplan.TemplateType, h, product *hop.Hop, covered cover, leaves []*hop.Hop) *hop.Hop {
	switch t {
	case cplan.TemplateRow:
		var x *hop.Hop
		switch {
		case rowCumsum(h):
			x = h.Inputs[0].Inputs[0].Inputs[0]
		case h.Kind == hop.OpMatMult && h.Inputs[0].Kind == hop.OpTranspose && covered.covers(h.Inputs[0]):
			x = h.Inputs[0].Inputs[0]
		default:
			rows := rowMainRows(h)
			for _, l := range leaves {
				if l.Rows == rows && l.Cols > 1 && (x == nil || l.Cells() > x.Cells()) {
					x = l
				}
			}
			return x
		}
		if covered.covers(x) {
			return nil // no Row plan transposes what it computes: t(f(X))
		}
		return x
	case cplan.TemplateOuter:
		if _, root := outerShape(h, product, covered); root == nil {
			return nil
		}
		// Not a factor of the product (V of a factor t(V) is never its shape).
		return pickMain(leaves, product.Rows, product.Cols, product.Inputs[0], product.Inputs[1])
	}
	if h.Kind == hop.OpAggUnary {
		h = h.Inputs[0]
	}
	return pickMain(leaves, h.Rows, h.Cols)
}

// pickMain returns the leaf of shape rows×cols, sparse first, leaving out
// the hops in except.
func pickMain(leaves []*hop.Hop, rows, cols int64, except ...*hop.Hop) *hop.Hop {
	var main *hop.Hop
	for _, l := range leaves {
		if l.Rows == rows && l.Cols == cols && !slices.Contains(except, l) {
			if main == nil || (l.IsSparse() && !main.IsSparse()) {
				main = l
			}
		}
	}
	return main
}

// rowCumsum reports whether h is t(cumsum(t(X))), the row-wise running sum
// a Row operator computes over the rows of X (§3.2).
func rowCumsum(h *hop.Hop) bool {
	return h.Kind == hop.OpTranspose && h.Inputs[0].Kind == hop.OpCumsum && h.Inputs[0].Inputs[0].Kind == hop.OpTranspose
}

// cellBody builds the bodies of one cell-bound operator (Cell, MAgg,
// Horizontal, Outer) over a rows×cols cell space: main is read as Main(0),
// dot (Outer's U %*% t(V); nil elsewhere) as the Dot register, every other
// leaf as a side. Nodes are memoized per hop, across the bodies of a
// multi-root operator too, so CSEs share one CNode.
type cellBody struct {
	main, dot  *hop.Hop
	rows, cols int64
	env        *sideEnv
	memo       map[int64]*cplan.CNode
}

func newCellBody(main, dot *hop.Hop, rows, cols int64) *cellBody {
	return &cellBody{main: main, dot: dot, rows: rows, cols: cols, env: newSideEnv(), memo: map[int64]*cplan.CNode{}}
}

// inputs is the operator's input list: main, then the sides in body order.
func (b *cellBody) inputs() []*hop.Hop { return append([]*hop.Hop{b.main}, b.env.sides...) }

func (b *cellBody) build(x *hop.Hop, r *region) (*cplan.CNode, bool) {
	if n, ok := b.memo[x.ID]; ok {
		return n, true
	}
	n, ok := b.node(x, r)
	if ok {
		b.memo[x.ID] = n
	}
	return n, ok
}

func (b *cellBody) node(x *hop.Hop, r *region) (*cplan.CNode, bool) {
	switch {
	case x == b.dot:
		return cplan.Dot(), true
	case r.covered[x.ID]:
	case x == b.main:
		return cplan.Main(0), true
	case x.Kind == hop.OpLiteral:
		return cplan.Lit(x.Value), true
	default:
		access, ok := accessFor(x, b.rows, b.cols)
		if !ok {
			return nil, false
		}
		return cplan.Side(b.env.idx(x), access, 0), true
	}
	switch x.Kind {
	case hop.OpBinary:
		l, ok1 := b.build(x.Inputs[0], r)
		rr, ok2 := b.build(x.Inputs[1], r)
		if !ok1 || !ok2 {
			return nil, false
		}
		return cplan.Binary(x.BinOp, l, rr), true
	case hop.OpUnary:
		in, ok := b.build(x.Inputs[0], r)
		if !ok {
			return nil, false
		}
		return cplan.Unary(x.UnOp, in), true
	}
	return nil, false
}

// -------------------------------------------------------------- Row ----

func (c *constructor) buildRowPlan(h *hop.Hop, r *region) (*cplan.Plan, []*hop.Hop) {
	main := operatorMain(cplan.TemplateRow, h, nil, r, r.leaves)
	if main == nil {
		return nil, nil
	}
	if rowCumsum(h) {
		plan := &cplan.Plan{
			Type:      cplan.TemplateRow,
			Row:       cplan.RowNoAgg,
			Root:      cplan.CumsumNode(cplan.Main(int(main.Cols))),
			MainWidth: int(main.Cols),
		}
		return plan, []*hop.Hop{main}
	}
	rowType, exprRoot := cplan.RowNoAgg, h
	switch {
	case h.Kind == hop.OpMatMult && h.Inputs[0].Kind == hop.OpTranspose && r.covered[h.Inputs[0].ID]:
		rowType, exprRoot = cplan.RowColAggT, h.Inputs[1]
	case h.Kind == hop.OpAggUnary:
		switch h.AggDir {
		case matrix.DirAll:
			rowType = cplan.RowFullAgg
		case matrix.DirCol:
			rowType = cplan.RowColAgg
		case matrix.DirRow:
			rowType = cplan.RowRowAgg
		}
		exprRoot = h.Inputs[0]
	case h.Kind == hop.OpMatMult && h.Cols == 1:
		// X %*% v: a row aggregate via the dot product; X %*% V stays NoAgg.
		rowType = cplan.RowRowAgg
	}
	env := newSideEnv()
	b := &rowBuilder{c: c, r: r, main: main, env: env, mainWidth: int(main.Cols), memo: map[int64]*cplan.CNode{}}
	root, ok := b.build(exprRoot)
	agg := h.Kind == hop.OpAggUnary
	switch {
	case !ok, rowType == cplan.RowColAgg && !root.Vector, !agg && rowType == cplan.RowRowAgg && root.Vector:
		return nil, nil
	case agg && rowType != cplan.RowColAgg && root.Vector:
		root = cplan.Agg(h.AggOp, root)
	case rowType == cplan.RowNoAgg && !root.Vector:
		// Scalar per row (e.g. y * (X %*% w)): a row-agg shaped output.
		if h.Cols != 1 {
			return nil, nil
		}
		rowType = cplan.RowRowAgg
	}
	plan := &cplan.Plan{
		Type:      cplan.TemplateRow,
		Row:       rowType,
		Root:      root,
		NumSides:  len(env.sides),
		MainWidth: b.mainWidth,
	}
	if agg && (h.AggOp == matrix.AggMin || h.AggOp == matrix.AggMax) {
		// The skeleton folds the result rows of a column or full aggregate
		// by the aggregate's own function (sums, and the row sums of squares, add).
		plan.AggOp = h.AggOp
	}
	return plan, append([]*hop.Hop{main}, env.sides...)
}

type rowBuilder struct {
	c         *constructor
	r         *region
	main      *hop.Hop
	env       *sideEnv
	mainWidth int
	memo      map[int64]*cplan.CNode
}

// build memoizes per hop so CSEs inside the fused operator share one CNode
// (and therefore one register after program compilation).
func (b *rowBuilder) build(x *hop.Hop) (*cplan.CNode, bool) {
	if n, ok := b.memo[x.ID]; ok {
		return n, true
	}
	n, ok := b.buildNode(x)
	if ok {
		b.memo[x.ID] = n
	}
	return n, ok
}

func (b *rowBuilder) buildNode(x *hop.Hop) (*cplan.CNode, bool) {
	if !b.r.covered[x.ID] {
		return b.leaf(x)
	}
	switch x.Kind {
	case hop.OpBinary:
		l, ok1 := b.build(x.Inputs[0])
		r, ok2 := b.build(x.Inputs[1])
		if !ok1 || !ok2 {
			return nil, false
		}
		return cplan.Binary(x.BinOp, l, r), true
	case hop.OpUnary:
		in, ok := b.build(x.Inputs[0])
		if !ok {
			return nil, false
		}
		return cplan.Unary(x.UnOp, in), true
	case hop.OpAggUnary:
		if x.AggDir != matrix.DirRow {
			return nil, false
		}
		in, ok := b.build(x.Inputs[0])
		if !ok || !in.Vector {
			return nil, false
		}
		return cplan.Agg(x.AggOp, in), true
	case hop.OpIndex:
		if x.RL != 0 || x.RU != x.Inputs[0].Rows {
			return nil, false
		}
		in, ok := b.build(x.Inputs[0])
		if !ok || !in.Vector {
			return nil, false
		}
		return cplan.Idx(in, int(x.CL), int(x.CU)), true
	case hop.OpMatMult:
		left, right := x.Inputs[0], x.Inputs[1]
		l, ok := b.build(left)
		if !ok || !l.Vector {
			return nil, false
		}
		if b.r.covered[right.ID] {
			return nil, false // right side must be materialized
		}
		if right.Cols == 1 {
			// Dot product with a whole-vector side.
			width := int(right.Rows)
			side := cplan.Side(b.env.idx(right), cplan.AccessRow, width)
			return cplan.Agg(matrix.AggSum, cplan.Binary(matrix.BinMul, l, side)), true
		}
		return cplan.MatMultNode(l, b.env.idx(right), int(right.Cols)), true
	}
	return nil, false
}

func (b *rowBuilder) leaf(x *hop.Hop) (*cplan.CNode, bool) {
	switch {
	case x == b.main:
		return cplan.Main(b.mainWidth), true
	case x.Kind == hop.OpLiteral:
		return cplan.Lit(x.Value), true
	case x.IsScalar():
		return cplan.Side(b.env.idx(x), cplan.AccessScalar, 0), true
	case x.Cols == 1 && x.Rows == b.main.Rows:
		return cplan.Side(b.env.idx(x), cplan.AccessCol, 0), true
	case x.Rows == b.main.Rows && x.Cols > 1:
		return cplan.Side(b.env.idx(x), cplan.AccessCell, int(x.Cols)), true
	case x.Rows == 1 && x.Cols > 1:
		return cplan.Side(b.env.idx(x), cplan.AccessRow, int(x.Cols)), true
	}
	return nil, false
}

// ------------------------------------------------------------- Outer ---

// largerProduct reports whether x is an outer product U %*% t(V) of small
// rank that an Outer operator opens with in place of mm: of the covered
// ones, that with the most cells, the lowest ID on ties.
func largerProduct(x, mm *hop.Hop) bool {
	return x.Kind == hop.OpMatMult && x.Inputs[0].Cols <= outerMaxRank &&
		x.Inputs[0].Cols == x.Inputs[1].Rows && x.Cells() > x.Inputs[0].Cols*x.Inputs[0].Cols &&
		(mm == nil || x.Cells() > mm.Cells() || x.Cells() == mm.Cells() && x.ID < mm.ID)
}

// outerShape is what an Outer operator rooted at h needs besides its driver
// (operatorMain): an opening product mm whose left factor U it reads, and a
// root variant — a full aggregate, t(O) %*% U, O %*% V where mm's right
// factor is t(V), or a cell expression — whose body root is covered. root is
// nil where no Outer operator can be built.
func outerShape(h, mm *hop.Hop, covered cover) (out cplan.OuterType, root *hop.Hop) {
	if mm == nil || covered.covers(mm.Inputs[0]) {
		return 0, nil
	}
	u, vt := mm.Inputs[0], mm.Inputs[1]
	var v *hop.Hop // nil unless vt is t(V): construction transposes any other
	if vt.Kind == hop.OpTranspose {
		v = vt.Inputs[0]
	}
	out, root = cplan.OuterNoAgg, h
	switch {
	case h.Kind == hop.OpAggUnary && h.AggDir == matrix.DirAll:
		out, root = cplan.OuterAgg, h.Inputs[0]
	case h.Kind == hop.OpMatMult && h != mm:
		left, right := h.Inputs[0], h.Inputs[1]
		switch {
		case covered.covers(left) && left.Kind == hop.OpTranspose && right == u:
			out, root = cplan.OuterLeftMM, left.Inputs[0]
		case covered.covers(left) && v != nil && right == v:
			out, root = cplan.OuterRightMM, left
		default:
			return 0, nil
		}
	}
	if !covered.covers(root) || root != mm && root.Kind != hop.OpBinary && root.Kind != hop.OpUnary {
		return 0, nil
	}
	return out, root
}

func (c *constructor) buildOuterPlan(h *hop.Hop, r *region) (*cplan.Plan, []*hop.Hop) {
	// Locate the covered opening outer-product multiplication.
	var mm *hop.Hop
	for id := range r.covered {
		if x := c.memo.Hop(id); largerProduct(x, mm) {
			mm = x
		}
	}
	mainX := operatorMain(cplan.TemplateOuter, h, mm, r, r.leaves)
	if mainX == nil {
		// No main input of the outer dimensions: the operator would run
		// densely over them; basic execution serves that instead.
		return nil, nil
	}
	outType, exprRoot := outerShape(h, mm, r)
	u, v := mm.Inputs[0], mm.Inputs[1]
	if v.Kind == hop.OpTranspose {
		v = v.Inputs[0]
	} else {
		// Materialize the transpose of the right factor as V.
		v = c.d.Transpose(v)
	}
	b := newCellBody(mainX, mm, mm.Rows, mm.Cols)
	root, ok := b.build(exprRoot, r)
	if !ok {
		return nil, nil
	}
	plan := &cplan.Plan{
		Type:       cplan.TemplateOuter,
		Out:        outType,
		Root:       root,
		NumSides:   len(b.env.sides),
		SparseSafe: cplan.ProbeSparseSafe(root),
	}
	return plan, append([]*hop.Hop{mainX, u, v}, b.env.sides...)
}
