package codegen

import (
	"cmp"
	"math"
	"slices"

	"sysml/internal/cplan"
	"sysml/internal/hop"
	"sysml/internal/matrix"
)

// fusedFlops is what one hop computes inside a fused operator, before the
// operator's sparsity exploitation (sparsityScale) scales it: a product is
// counted over dense rows, so that the sparsity of its left input, which
// the scale holds when that input drives the operator, counts once.
func fusedFlops(h *hop.Hop) float64 {
	if h.Kind == hop.OpMatMult {
		a, b := h.Inputs[0], h.Inputs[1]
		return 2 * float64(a.Rows) * float64(b.Cols) * float64(a.Cols)
	}
	return flops(h)
}

// flops estimates the floating-point operations of one HOP.
func flops(h *hop.Hop) float64 {
	switch h.Kind {
	case hop.OpBinary, hop.OpUnary:
		return float64(h.Cells())
	case hop.OpAggUnary, hop.OpRowIndexMax:
		return float64(h.Inputs[0].Cells())
	case hop.OpMatMult:
		a, b := h.Inputs[0], h.Inputs[1]
		return 2 * float64(a.Rows) * float64(b.Cols) * float64(a.Cols) * a.Sparsity()
	case hop.OpTranspose, hop.OpIndex, hop.OpCBind, hop.OpRBind, hop.OpDiag:
		return float64(h.Cells())
	}
	return 0
}

// hfuseMinGain is the minimum modeled saving (seconds) a horizontal merge
// must clear before siblings are fused: below it the shared scan is too
// cheap for the merge to matter and the extra plan surface (a distinct
// multi-output operator class, wider per-row state) is not worth paying.
const hfuseMinGain = 1e-5

// Coster evaluates the analytical cost model (§4.3) for a plan partition
// under an interesting-point assignment q: C(Pi|q) = Σ_p Tw + max(Tr, Tc),
// with cost vectors per fused operator capturing shared reads and CSEs. One
// recursion (price) prices the candidates of a node and chooses the template
// that opens its operator; a plan's price sums, once per node the plan
// makes, the chosen operator (charge); construction reads the same choices
// (choose).
type Coster struct {
	cfg  *Config
	part *Partition

	// nodes holds what costing reads of the partition's hops and of the
	// inputs they consume, gathered once, so that pricing a plan looks
	// nothing up by hop ID or edge; at maps a hop ID to its index.
	nodes []cnode
	at    map[int64]int32
	q     []bool // by index into part.Points; true = materialize: fusion refs over the edge invalid

	// The lower bound's q-independent terms (LowerBound) and, per point,
	// the node it materializes.
	lbWrite, lbRead, lbCompute, readBW float64
	ptTo, roots                        []int32

	// Scratch of the plan being priced. Marks on the nodes compare against
	// plan and opSeq, which only grow, so nothing is cleared between plans.
	plan, opSeq int64
	ins         []int32  // inputs of the operator being walked
	uses        []int32  // inputs of the current operator, an entry per consumer: index<<2, | 1 unless it walks their rows (else it reads a sparse one by element), | 2 unless a zero there is a zero here
	covered     int      // hops of the current operator
	nonCell     int      // of them, those that are not element-wise
	product     *hop.Hop // of them, the outer product an Outer operator opens with (largerProduct)
	cands       []sibling
	candAt      []int32 // node of each of cands
	groups      groupBuf
	hbuf        []*hop.Hop // scratch of hops

	// The pair relation of sibling candidates (relate), computed the first
	// time a plan has candidates to group.
	relIdx  []int32
	related [][]bool
}

// cnode is one hop as the coster sees it.
type cnode struct {
	h       *hop.Hop
	inPart  bool
	root    bool    // materialized under every plan (part.Roots)
	order   []Entry // the memo entries by template type, most fusion references first
	ins     []int32 // h.Inputs as indexes into Coster.nodes (partition nodes only)
	pts     []int32 // per input, its edge's index into part.Points, or -1
	uses    []int8  // per input, its Coster.uses bits, or -1 for none
	parents []int32 // consumers in the partition
	flops   float64
	fused   float64 // fusedFlops(h)
	bytes   float64 // h.ReadSizeBytes()
	bare    opRec   // h as a basic operator, over ins

	priced  int64                         // plan that price and picks hold for
	price   float64                       // the node's operator and the inputs only it makes
	picks   []pick                        // the candidates: the cheapest, which opens the operator, first
	walks   [cplan.TemplateOuter + 1]walk // per template type, its candidate's operator
	charged int64                         // plan whose price holds the node's operator
	mat     int64                         // plan that materializes a point into the node
	inOp    int64                         // operator that last covered the node
	asInput int64                         // operator that last read the node
	bounded int64                         // LowerBound call that last counted the node
}

// pick is one candidate at a node: the entry that opens its operator and
// its price with the inputs only it makes.
type pick struct {
	e   Entry
	sec float64
}

// walk is the operator a candidate opens under the plan being priced.
type walk struct {
	op  opRec
	ins []int32
}

// opRec is one operator as a plan's price and a sibling merge see it: its
// price, its flops before sparsity exploitation, the hops it covers and how
// many of them are not element-wise, and whether its body skips the zeros of
// its main input.
type opRec struct {
	sec, fl      float64
	ops, nonCell int
	safe         bool
}

// op is the operator the plan opens at n and its inputs.
func (n *cnode) op() (*opRec, []int32) {
	if len(n.picks) > 0 {
		w := &n.walks[n.picks[0].e.Type]
		return &w.op, w.ins
	}
	return &n.bare, n.ins
}

// NewCoster prepares a coster for one partition.
func NewCoster(cfg *Config, m *Memo, p *Partition) *Coster {
	c := &Coster{cfg: cfg, part: p, at: make(map[int64]int32, 2*len(p.Nodes)), q: make([]bool, len(p.Points))}
	ids := make([]int64, 0, len(p.Nodes))
	for id := range p.Nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	add := func(h *hop.Hop) int32 {
		i, ok := c.at[h.ID]
		if !ok {
			i = int32(len(c.nodes))
			c.at[h.ID] = i
			c.nodes = append(c.nodes, cnode{h: h, inPart: p.Nodes[h.ID], flops: flops(h), fused: fusedFlops(h), bytes: float64(h.ReadSizeBytes())})
		}
		return i
	}
	for _, id := range ids {
		add(m.Hop(id))
	}
	pt := make(map[Edge]int32, len(p.Points))
	for i, e := range p.Points {
		pt[e] = int32(i)
	}
	minScale := 1.0
	mc := c.cfg.Costs
	// The fastest rate an input is read at: ReadBW, unless a profile put
	// the broadcast of a distributed operator's sides above it.
	c.readBW = math.Max(mc.ReadBW, mc.BroadcastBW)
	for i := range ids {
		h := c.nodes[i].h
		ins, pts, uses := make([]int32, len(h.Inputs)), make([]int32, len(h.Inputs)), make([]int8, len(h.Inputs))
		for j, in := range h.Inputs {
			ins[j], pts[j], uses[j] = add(in), -1, -1
			if k, ok := pt[Edge{h.ID, in.ID}]; ok {
				pts[j] = k
			}
			// A matrix product, its transpose or a sum walks the rows of its
			// input. Element-by-element consumers run over a tile; over a
			// sparse input they keep a Row operator from binding it as
			// sparse rows, and a cell operator from skipping its zeros unless
			// a zero there makes a zero here.
			if walks := rowSparseCapableUse(h); walks || in.IsSparse() {
				uses[j] = 0
				if !walks {
					uses[j] |= 1
				}
				if !zeroAtZero(h, j) {
					uses[j] |= 2
				}
			}
			if in.IsSparse() {
				minScale = math.Min(minScale, in.Sparsity())
			}
			if int(ins[j]) < len(ids) {
				c.nodes[ins[j]].parents = append(c.nodes[ins[j]].parents, int32(i))
			}
		}
		n := &c.nodes[i]
		n.ins, n.pts, n.uses = ins, pts, uses
		n.order = slices.Clone(m.Get(h.ID).Entries)
		slices.SortStableFunc(n.order, func(a, b Entry) int {
			return cmp.Or(cmp.Compare(a.Type, b.Type), cmp.Compare(b.RefCount(), a.RefCount()))
		})
		n.picks = make([]pick, 0, cplan.TemplateOuter+1)
		inBytes, largest := readBytes(h.Inputs)
		n.bare = opRec{sec: opSec(mc, h, inBytes, largest, n.flops), fl: n.flops, ops: 1, nonCell: 1, safe: true}
		if h.Kind == hop.OpBinary || h.Kind == hop.OpUnary {
			n.bare.nonCell, n.bare.safe = 0, zeroAtZero(h, 0)
		}
		if h.IsSparse() {
			minScale = math.Min(minScale, h.Sparsity())
		}
		c.lbCompute += n.flops
	}
	c.lbCompute *= minScale / mc.ComputeBW
	for _, id := range p.Inputs {
		c.lbRead += float64(m.Hop(id).ReadSizeBytes()) / c.readBW
	}
	for _, r := range p.Roots {
		c.roots = append(c.roots, c.at[r])
		c.nodes[c.at[r]].root = true
		c.lbWrite += float64(m.Hop(r).OutputSizeBytes()) / mc.WriteBW
	}
	c.ptTo = make([]int32, len(p.Points))
	for i, e := range p.Points {
		c.ptTo[i] = c.at[e.To]
	}
	return c
}

// PlanCost computes C(Pi|q), or +Inf where that exceeds budget.
func (c *Coster) PlanCost(q map[Edge]bool, budget float64) float64 {
	for i, e := range c.part.Points {
		c.q[i] = q[e]
	}
	return c.cost(c.q, budget)
}

// choose prices the plan of q and every node of the partition under it, so
// that each node's candidates (pickEntries) hold before construction
// changes the DAG.
func (c *Coster) choose(q map[Edge]bool) {
	c.PlanCost(q, math.Inf(1))
	for i := range c.nodes {
		c.price(int32(i))
	}
}

// cost is PlanCost for an assignment by point index (q is not retained past
// the next call): the operator of every node the plan makes, once — the
// partition's roots, the targets of materialized points and, from them down,
// the inputs of every operator it opens — less what its sibling merges save.
func (c *Coster) cost(q []bool, budget float64) float64 {
	c.q = q
	c.plan++
	for k, on := range q {
		if on {
			c.nodes[c.ptTo[k]].mat = c.plan
		}
	}
	total := 0.0
	for _, r := range c.roots {
		total += c.charge(r)
	}
	for k, on := range q {
		if on {
			total += c.charge(c.ptTo[k])
		}
	}
	if total -= c.siblingSavings(); total > budget {
		return math.Inf(1)
	}
	return total
}

// charge is the price of the operator the plan opens at node i and of the
// operators that make its inputs, each node counted once per plan.
func (c *Coster) charge(i int32) float64 {
	n := &c.nodes[i]
	if !n.inPart || n.charged == c.plan {
		return 0
	}
	n.charged = c.plan
	c.price(i)
	op, ins := n.op()
	sec := op.sec
	for _, x := range ins {
		sec += c.charge(x)
	}
	return sec
}

// price chooses the operator that opens at node i under c.q and returns what
// it costs a plan that makes i: the operator itself, plus the price of each
// input that only this operator makes. An input the plan makes anyway — a
// partition root, the target of a materialized point, an input of the
// partition — adds nothing here. The candidates are, per template type, the
// valid entry with the most fusion references; the cheapest opens the
// operator, ties going to the lower TemplateType (Cell, Row, MAgg, Outer).
// A candidate construction could not build (open) is none, and a node
// without candidates is a basic operator.
func (c *Coster) price(i int32) float64 {
	n := &c.nodes[i]
	if !n.inPart || n.priced == c.plan {
		return n.price
	}
	n.priced = c.plan
	n.picks = n.picks[:0]
	for o, e := range n.order {
		// A MAgg entry is built as the Cell full aggregate it equals.
		if k := len(n.picks); (k == 0 || n.picks[k-1].e.Type != e.Type && (e.Type != cplan.TemplateMAgg || n.picks[0].e.Type != cplan.TemplateCell)) && c.valid(n, o) {
			n.picks = append(n.picks, pick{e: e})
		}
	}
	k, b := 0, 0
	for _, p := range n.picks {
		if w := c.open(i, &p); w != nil {
			p.sec = w.op.sec + c.inputs(w.ins)
			if n.picks[k] = p; p.sec < n.picks[b].sec {
				b = k
			}
			k++
		}
	}
	if n.picks = n.picks[:k]; k == 0 {
		n.price = n.bare.sec + c.inputs(n.ins)
		return n.price
	}
	// The cheapest to the front, the others after it in type order.
	best := n.picks[b]
	copy(n.picks[1:b+1], n.picks[:b])
	n.picks[0], n.price = best, best.sec
	return n.price
}

// inputs is the price of the nodes among ins that the plan makes only for
// the operator reading them.
func (c *Coster) inputs(ins []int32) (sec float64) {
	for _, x := range ins {
		if n := &c.nodes[x]; n.inPart && !n.root && n.mat != c.plan {
			sec += c.price(x)
		}
	}
	return sec
}

// open walks the operator that candidate p opens at node i: its price
// (opSec and rowMainSec) and inputs. It is nil where construction would not
// build it: an operator that fuses nothing, an Outer operator without
// outerShape.
func (c *Coster) open(i int32, p *pick) *walk {
	w := &c.nodes[i].walks[p.e.Type]
	c.opSeq++
	c.ins, c.uses, c.covered, c.nonCell, c.product = w.ins[:0], c.uses[:0], 0, 0, nil
	fl := c.addToOp(i, &p.e, c.opSeq)
	if w.ins = c.ins; c.covered < 2 {
		return nil
	}
	if p.e.Type == cplan.TemplateOuter {
		seq := c.opSeq
		covered := func(x *hop.Hop) bool { k, ok := c.at[x.ID]; return ok && c.nodes[k].inOp == seq }
		if _, _, main := outerShape(c.nodes[i].h, c.product, covered, c.hops(w.ins)); main == nil {
			return nil
		}
	}
	// Operator cost: write output once, read distinct inputs, compute.
	var inBytes, largest float64
	var main *hop.Hop
	mainAt := int32(-1)
	for _, in := range w.ins {
		x, b := c.nodes[in].h, c.nodes[in].bytes
		inBytes, largest = inBytes+b, math.Max(largest, b)
		if m := mainInput(main, x); m != main {
			main, mainAt = m, in
		}
	}
	t := p.e.Type
	denseMain, uses := false, 0
	for _, u := range c.uses {
		if u>>2 == mainAt {
			denseMain = denseMain || u&1 == 1 && t == cplan.TemplateRow || u&2 == 2 && t != cplan.TemplateRow
			uses += int(1 - u&1)
		}
	}
	sec := rowMainSec(c.cfg.Costs, t, main, denseMain, uses) +
		opSec(c.cfg.Costs, c.nodes[i].h, inBytes, largest, fl*sparsityScale(t, main, denseMain))
	w.op = opRec{sec: sec, fl: fl, ops: c.covered, nonCell: c.nonCell, safe: !denseMain}
	return w
}

// hops is the hops of the nodes ins, valid until the next call.
func (c *Coster) hops(ins []int32) []*hop.Hop {
	c.hbuf = c.hbuf[:0]
	for _, x := range ins {
		c.hbuf = append(c.hbuf, c.nodes[x].h)
	}
	return c.hbuf
}

// rowSparseCapableUse reports whether consumer h reads its input the way a
// Row program can serve from sparse main rows: the mirror, at HOP level, of
// cplan.Program.MainSparseCapable.
func rowSparseCapableUse(h *hop.Hop) bool {
	switch h.Kind {
	case hop.OpMatMult, hop.OpTranspose:
		return true
	case hop.OpAggUnary:
		return h.AggOp == matrix.AggSum || h.AggOp == matrix.AggSumSq
	}
	return false
}

// zeroAtZero reports whether consumer h yields zero wherever its input j is
// zero whatever its other operands hold (cplan.ProbeSparseSafe's rule, one
// operator deep): only then does an operator driven by that input skip its
// zero cells.
func zeroAtZero(h *hop.Hop, j int) bool {
	switch h.Kind {
	case hop.OpUnary:
		return h.UnOp.SparseSafe()
	case hop.OpBinary:
		switch h.BinOp {
		case matrix.BinMul, matrix.BinAnd:
			return true
		case matrix.BinDiv, matrix.BinPow:
			return j == 0
		}
		other := h.Inputs[1-j]
		return other.Kind == hop.OpLiteral && other.Value == 0 && h.BinOp.Apply(0, 0) == 0
	}
	return rowSparseCapableUse(h)
}

// rowMainSec is what a Row operator pays for its main input beyond reading
// it once. Each of the uses consumers that walk its rows (a matrix product,
// its transpose, a sum: rowSparseCapableUse) walks them again after the
// first: a call per row, not a kernel over the tile — over a sparse row,
// index and value of every non-zero and a gather. A sparse main input the
// program cannot bind as sparse rows (denseMain) is first written out dense,
// tile by tile, and read back. Zero for every other operator.
func rowMainSec(m CostModel, t cplan.TemplateType, main *hop.Hop, denseMain bool, uses int) float64 {
	if t != cplan.TemplateRow || main == nil {
		return 0
	}
	walk, sec := float64(main.ReadSizeBytes()), 0.0
	if denseMain && main.IsSparse() {
		walk = float64(main.Cells()) * 8
		sec = walk/m.WriteBW + walk/m.ReadBW
	}
	return sec + float64(max(uses-1, 0))*walk/m.ReadBW
}

// addToOp accumulates node i into the fused operator op following the memo
// entry's fusion references, and returns the flops it added; a hop reached
// over multiple paths within the same fused operator counts once, while
// overlapping operators still count redundant compute.
func (c *Coster) addToOp(i int32, entry *Entry, op int64) float64 {
	n := &c.nodes[i]
	if n.inOp == op {
		return 0
	}
	n.inOp = op
	c.covered++
	if n.h.Kind != hop.OpBinary && n.h.Kind != hop.OpUnary {
		c.nonCell++
	}
	if largerProduct(n.h, c.product) {
		c.product = n.h
	}
	fl := n.fused
	for j, in := range n.ins {
		if entry.Inputs[j] >= 0 && !c.materialized(n, j) {
			if child := c.cont(&c.nodes[in], entry.Type); child != nil {
				fl += c.addToOp(in, child, op)
				continue
			}
		}
		x := &c.nodes[in]
		if x.asInput != op {
			x.asInput = op
			c.ins = append(c.ins, in)
		}
		if u := n.uses[j]; u >= 0 {
			c.uses = append(c.uses, in<<2|int32(u))
		}
	}
	return fl
}

func (c *Coster) materialized(n *cnode, j int) bool {
	p := n.pts[j]
	return p >= 0 && c.q[p]
}

// opSec is the model's price of one operator, fused or basic: Tw + max(Tr,
// Tc) over its output bytes, the bytes of its distinct inputs as stored (a
// sparse input's CSR size: sparsity is in the bytes already) and its flops
// after sparsity exploitation. A distributed operator (h, its root hop,
// carries the exec type) receives all but its largest input, of largest
// bytes, at broadcast bandwidth.
func opSec(m CostModel, h *hop.Hop, inBytes, largest, fl float64) float64 {
	tr := inBytes / m.ReadBW
	if side := inBytes - largest; h.ExecType == hop.ExecDist && side > 0 {
		tr = largest/m.ReadBW + side/m.BroadcastBW
	}
	return float64(h.OutputSizeBytes())/m.WriteBW + math.Max(tr, fl/m.ComputeBW)
}

// readBytes is what an operator over ins reads: the bytes of all of them as
// stored, and of the largest.
func readBytes(ins []*hop.Hop) (total, largest float64) {
	for _, in := range ins {
		b := float64(in.ReadSizeBytes())
		total, largest = total+b, math.Max(largest, b)
	}
	return total, largest
}

// mainInput folds in into the running choice of a fused operator's main
// input as the cost model sees it: the input with the most cells (lowest ID
// on ties).
func mainInput(main, in *hop.Hop) *hop.Hop {
	if main == nil || in.Cells() > main.Cells() ||
		(in.Cells() == main.Cells() && in.ID < main.ID) {
		return in
	}
	return main
}

// sparsityScale returns the factor by which sparsity exploitation scales a
// fused operator's compute: the main-input sparsity for Outer templates
// and sparse-driving Cell/MAgg templates (§4.3), unless the operator visits
// every cell of a sparse main input (denseMain): a Row operator that cannot
// bind sparse rows and computes over densified tiles, any other whose body
// is not sparse-safe.
func sparsityScale(t cplan.TemplateType, main *hop.Hop, denseMain bool) float64 {
	if main == nil || !main.IsSparse() || denseMain {
		return 1
	}
	switch t {
	case cplan.TemplateOuter:
		return main.Sparsity()
	case cplan.TemplateRow:
		// genexecSparse binds sparse rows; dense side work per row remains,
		// so scale conservatively.
		return math.Max(main.Sparsity(), 0.05)
	default:
		return math.Max(main.Sparsity(), 0.01)
	}
}

// pickEntries returns the candidates at h under the assignment construction
// chose with (choose): the first, the cheapest, opens h's operator, the
// others, in TemplateType order, are what construction falls back to when a
// template cannot express the region. None for a basic operator.
func (c *Coster) pickEntries(h *hop.Hop) []pick {
	if i, ok := c.at[h.ID]; ok {
		return c.nodes[i].picks
	}
	return nil
}

// valid reports whether n.order[o] fuses over no edge q materializes.
func (c *Coster) valid(n *cnode, o int) bool {
	for j, in := range n.order[o].Inputs {
		if in >= 0 && c.materialized(n, j) {
			return false
		}
	}
	return true
}

// cont is the entry that continues an enclosing operator of type t at n: an
// open, valid entry of type t, else of Cell (Cell plans merge into every
// template), with the most fusion references; nil if there is none.
func (c *Coster) cont(n *cnode, t cplan.TemplateType) (e *Entry) {
	for o := range n.order {
		if x := &n.order[o]; x.Closed == StatusOpen && (x.Type == t || e == nil && x.Type == cplan.TemplateCell) && c.valid(n, o) {
			if e = x; x.Type == t {
				break
			}
		}
	}
	return e
}

// contAt is cont for the hop h.
func (c *Coster) contAt(h *hop.Hop, t cplan.TemplateType) (Entry, bool) {
	if i, ok := c.at[h.ID]; ok {
		if e := c.cont(&c.nodes[i], t); e != nil {
			return *e, true
		}
	}
	return Entry{}, false
}

// LowerBound bounds from below the cost of every plan that materializes at
// least the points q assigns true (§4.4 cost-based pruning), the way opSec
// prices plans: Σ Tw + max(Σ Tr, Σ Tc) never exceeds Σ (Tw + max(Tr, Tc)).
// Written under every such plan are the partition's roots and the targets of
// the true points; read, every partition input and every such target, once;
// computed, every node once at the best sparsity exploitation any input of
// the partition allows. Reads hide behind compute and the reverse, as they
// may in the plan; writes hide behind nothing.
func (c *Coster) LowerBound(q []bool) float64 {
	m := c.cfg.Costs
	c.opSeq++
	w, r := c.lbWrite, c.lbRead
	for i, on := range q {
		t := &c.nodes[c.ptTo[i]]
		if !on || t.bounded == c.opSeq {
			continue
		}
		t.bounded = c.opSeq
		r += float64(t.h.ReadSizeBytes()) / c.readBW
		if !t.root {
			w += float64(t.h.OutputSizeBytes()) / m.WriteBW
		}
	}
	return w + math.Max(r, c.lbCompute)
}
