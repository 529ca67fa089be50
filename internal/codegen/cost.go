package codegen

import (
	"fmt"
	"math"
	"slices"

	"sysml/internal/cplan"
	"sysml/internal/hop"
	"sysml/internal/matrix"
)

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

// horizontalSavings models what merging k siblings over one shared main
// input saves: the k-1 redundant scans of the main input that separate
// execution would perform.
func horizontalSavings(m CostModel, k int, mainBytes float64) float64 {
	return float64(k-1) * mainBytes / m.ReadBW
}

// horizontalMixPenalty charges the sparse-safety mixing cost of a merged
// scan: the fused skeleton iterates non-zeros only when every root is
// sparse-safe, so merging a sparse-safe sibling with an unsafe one forces
// the safe sibling's ops over all cells instead of stored entries. Zero
// for dense mains and for groups with uniform sparse-safety.
func horizontalMixPenalty(m CostModel, main *hop.Hop, safe []bool, numOps []int) float64 {
	if !main.IsSparse() {
		return 0
	}
	cells := float64(main.Cells())
	nnz := cells * main.Sparsity()
	mergedVisited := nnz
	for _, s := range safe {
		if !s {
			mergedVisited = cells
			break
		}
	}
	var penalty float64
	for i, s := range safe {
		visited := cells
		if s {
			visited = nnz
		}
		penalty += (mergedVisited - visited) * float64(numOps[i]) / m.ComputeBW
	}
	return penalty
}

// declineReason renders a horizontal cost-gate decline deterministically
// for the EXPLAIN report.
func declineReason(saved, gate float64) string {
	return fmt.Sprintf("modeled saving %.3g s below gate %.3g s", saved, gate)
}

// Coster evaluates the analytical cost model (§4.3) for a plan partition
// under an interesting-point assignment q: C(Pi|q) = Σ_p Tw + max(Tr, Tc),
// with cost vectors per fused operator capturing shared reads and CSEs.
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
	ptTo                               []int32

	// Scratch of the plan being priced. Marks on the nodes compare against
	// plan and opSeq, which only grow, so nothing is cleared between plans.
	plan, opSeq int64
	ins         []int32 // inputs of the operators being opened, innermost last
	uses        []int32 // inputs of the current operator, an entry per consumer: index<<2, | 1 unless it walks their rows (else it reads a sparse one by element), | 2 unless a zero there is a zero here
	covered     int     // hops of the current operator
	total       float64
	budget      float64
	exceeded    bool
}

// cnode is one hop as the coster sees it.
type cnode struct {
	h      *hop.Hop
	g      *Group
	inPart bool
	root   bool    // materialized under every plan (part.Roots)
	ins    []int32 // h.Inputs as indexes into Coster.nodes (partition nodes only)
	pts    []int32 // per input, its edge's index into part.Points, or -1
	flops  float64

	sparseIn bool // some input is sparse (typePreference)
	rowAgg   int8 // overRowAggregate: 0 not computed, 1 no, 2 yes

	costed  int64 // plan that priced the node as an operator root
	inOp    int64 // operator that last covered the node
	asInput int64 // operator that last read the node
	bounded int64 // LowerBound call that last counted the node
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
			c.nodes = append(c.nodes, cnode{h: h, g: m.Get(h.ID), inPart: p.Nodes[h.ID], flops: flops(h)})
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
		ins, pts := make([]int32, len(h.Inputs)), make([]int32, len(h.Inputs))
		for j, in := range h.Inputs {
			ins[j], pts[j] = add(in), -1
			if k, ok := pt[Edge{h.ID, in.ID}]; ok {
				pts[j] = k
			}
			if in.IsSparse() {
				c.nodes[i].sparseIn = true
				minScale = math.Min(minScale, in.Sparsity())
			}
		}
		c.nodes[i].ins, c.nodes[i].pts = ins, pts
		if h.IsSparse() {
			minScale = math.Min(minScale, h.Sparsity())
		}
		c.lbCompute += c.nodes[i].flops
	}
	c.lbCompute *= minScale / mc.ComputeBW
	for _, id := range p.Inputs {
		c.lbRead += float64(m.Hop(id).ReadSizeBytes()) / c.readBW
	}
	for _, r := range p.Roots {
		c.nodes[c.at[r]].root = true
		c.lbWrite += float64(m.Hop(r).OutputSizeBytes()) / mc.WriteBW
	}
	c.ptTo = make([]int32, len(p.Points))
	for i, e := range p.Points {
		c.ptTo[i] = c.at[e.To]
	}
	return c
}

// PlanCost computes C(Pi|q); costing stops early (returning +Inf) once the
// partial costs exceed budget (pass +Inf to disable the cutoff).
func (c *Coster) PlanCost(q map[Edge]bool, budget float64) float64 {
	c.assign(q)
	return c.cost(c.q, budget)
}

// assign sets the assignment the entry-pick rule reads from a set of edges.
func (c *Coster) assign(q map[Edge]bool) {
	for i, e := range c.part.Points {
		c.q[i] = q[e]
	}
}

// cost is PlanCost for an assignment by point index (q is not retained past
// the next call).
func (c *Coster) cost(q []bool, budget float64) float64 {
	c.q = q
	c.plan++
	c.total, c.budget, c.exceeded = 0, budget, false
	for _, r := range c.part.Roots {
		c.costNode(c.at[r])
		if c.exceeded {
			return math.Inf(1)
		}
	}
	return c.total
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

func (c *Coster) costNode(i int32) {
	n := &c.nodes[i]
	if c.exceeded || n.costed == c.plan {
		return
	}
	n.costed = c.plan
	if !n.inPart {
		// Input node: produced outside the partition; its read is accounted
		// by the consuming operator.
		return
	}
	h := n.h
	entry, _, ok := c.pick(n, -1, -1)
	base := len(c.ins)
	var fl float64
	if ok {
		// Open a fused operator at h. One that fuses nothing is left a
		// basic operator, as construction leaves it.
		c.opSeq++
		c.uses, c.covered = c.uses[:0], 0
		fl = c.addToOp(i, entry, c.opSeq)
		ok = c.covered > 1
	}
	if !ok {
		c.ins = c.ins[:base]
		inBytes, largest := readBytes(h.Inputs)
		c.addOpCost(h, inBytes, largest, n.flops)
		for _, in := range n.ins {
			c.costNode(in)
		}
		return
	}
	// Operator cost: write output once, read distinct inputs, compute.
	var inBytes, largest float64
	var main *hop.Hop
	mainAt := int32(-1)
	for _, in := range c.ins[base:] {
		x := c.nodes[in].h
		b := float64(x.ReadSizeBytes())
		inBytes, largest = inBytes+b, math.Max(largest, b)
		if m := mainInput(main, x); m != main {
			main, mainAt = m, in
		}
	}
	denseMain, uses := false, 0
	for _, u := range c.uses {
		if u>>2 == mainAt {
			denseMain = denseMain || u&1 == 1 && entry.Type == cplan.TemplateRow || u&2 == 2 && entry.Type != cplan.TemplateRow
			uses += int(1 - u&1)
		}
	}
	c.total += rowMainSec(c.cfg.Costs, entry.Type, main, denseMain, uses)
	c.addOpCost(h, inBytes, largest, fl*sparsityScale(entry.Type, main, denseMain))
	// Recurse into materialized inputs of the fused operator.
	for k, end := base, len(c.ins); k < end; k++ {
		c.costNode(c.ins[k])
	}
	c.ins = c.ins[:base]
}

// addToOp accumulates node i into the fused operator op following the memo
// entry's fusion references, and returns the flops it added; a hop reached
// over multiple paths within the same fused operator counts once, while
// overlapping operators still count redundant compute.
func (c *Coster) addToOp(i int32, entry Entry, op int64) float64 {
	n := &c.nodes[i]
	if n.inOp == op {
		return 0
	}
	n.inOp = op
	c.covered++
	fl := n.flops
	for j, in := range n.ins {
		if entry.Inputs[j] >= 0 && !c.materialized(n, j) {
			if child, _, ok := c.pick(&c.nodes[in], int(entry.Type), -1); ok {
				fl += c.addToOp(in, child, op)
				continue
			}
		}
		x := &c.nodes[in]
		if x.asInput != op {
			x.asInput = op
			c.ins = append(c.ins, in)
		}
		// A matrix product, its transpose or a sum walks the rows of its
		// input. Element-by-element consumers run over a tile; over a
		// sparse input they keep a Row operator from binding it as sparse
		// rows, and a cell operator from skipping its zeros unless a zero
		// there makes a zero here.
		if walks := rowSparseCapableUse(n.h); walks || x.h.IsSparse() {
			u := in << 2
			if !walks {
				u |= 1
			}
			if !zeroAtZero(n.h, j) {
				u |= 2
			}
			c.uses = append(c.uses, u)
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

func (c *Coster) addOpCost(h *hop.Hop, inBytes, largest, fl float64) {
	c.total += opSec(c.cfg.Costs, h, inBytes, largest, fl)
	if c.total > c.budget {
		c.exceeded = true
	}
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

// pickEntry selects the best memo entry at h under the assignment, or
// (zero, false) to execute h as a basic operator. The deterministic rule
// prefers sparsity-exploiting templates, then maximal fusion references.
func (c *Coster) pickEntry(h *hop.Hop) (Entry, bool) {
	return c.pickEntryCompat(h, -1)
}

// pickEntries returns the best valid entry of every template type at h,
// best first: pickEntry's choice followed by the alternatives construction
// falls back to when the preferred template cannot express the region.
func (c *Coster) pickEntries(h *hop.Hop) []Entry {
	i, ok := c.at[h.ID]
	if !ok || c.nodes[i].g == nil {
		return nil
	}
	n := &c.nodes[i]
	var out []Entry
	var scores []float64
	for _, t := range n.g.Types() {
		if e, score, ok := c.pick(n, -1, int(t)); ok {
			k := len(out)
			for k > 0 && scores[k-1] < score {
				k--
			}
			out, scores = slices.Insert(out, k, e), slices.Insert(scores, k, score)
		}
	}
	return out
}

// pickEntryCompat is pickEntry among the entries that can continue an
// enclosing operator of type t (any entry for t < 0).
func (c *Coster) pickEntryCompat(h *hop.Hop, t cplan.TemplateType) (Entry, bool) {
	i, ok := c.at[h.ID]
	if !ok {
		return Entry{}, false
	}
	e, _, ok := c.pick(&c.nodes[i], int(t), -1)
	return e, ok
}

// pick scores the entries of n valid under q. wantType >= 0 restricts to
// entries that can continue an enclosing operator of that type; onlyType
// >= 0 restricts to that template type.
func (c *Coster) pick(n *cnode, wantType, onlyType int) (Entry, float64, bool) {
	best := Entry{}
	bestScore := math.Inf(-1)
	found := false
	if n.g == nil || !n.inPart {
		return best, bestScore, false
	}
	for _, e := range n.g.Entries {
		if onlyType >= 0 && int(e.Type) != onlyType {
			continue
		}
		if wantType >= 0 {
			// Continuing inside an operator of type wantType: same type or
			// mergeable Cell plans, and only open plans can be extended.
			if e.Closed != StatusOpen {
				continue
			}
			if int(e.Type) != wantType && e.Type != cplan.TemplateCell {
				continue
			}
		}
		valid := true
		for j := range n.pts {
			if e.Inputs[j] >= 0 && c.materialized(n, j) {
				valid = false
				break
			}
		}
		if !valid {
			continue
		}
		score := float64(e.RefCount())*10 + c.typePreference(e.Type, n)
		if wantType >= 0 && int(e.Type) == wantType {
			// Continuing the enclosing operator's own template keeps its
			// chain (e.g. the Dot of an Outer plan) intact; merged Cell
			// plans only win for side expressions without same-type plans.
			score += 5
		}
		if score > bestScore {
			best, bestScore, found = e, score, true
		}
	}
	return best, bestScore, found
}

// typePreference breaks ties between templates: sparsity-exploiting Outer
// templates first when the inputs are sparse, then MAgg, Row, Cell — except
// over a row aggregate of the partition (overRowAggregate), where Row goes
// first.
func (c *Coster) typePreference(t cplan.TemplateType, n *cnode) float64 {
	switch t {
	case cplan.TemplateOuter:
		if n.sparseIn {
			return 4
		}
		return 1.5
	case cplan.TemplateMAgg:
		return 2
	case cplan.TemplateRow:
		if n.h.Cols > 1 && c.overRowAggregate(n) {
			return 3.5
		}
		return 2.5
	default:
		return 3 // Cell: the canonical template for element-wise chains
	}
}

// overRowAggregate reports whether the element-wise chain at n, inside the
// partition, reaches a row aggregate (M / rowSums(exp(M - rowMaxs(M)))): only
// a Row operator fuses the aggregate with the matrix it is combined with, in
// one pass over M, where Cell operators need every such vector materialized
// and a pass each. Over a vector that enters the partition from outside
// both templates cover the same operators.
func (c *Coster) overRowAggregate(n *cnode) bool {
	if n.rowAgg == 0 {
		n.rowAgg = 1
		h := n.h
		switch {
		case !n.inPart:
		case h.Kind == hop.OpAggUnary:
			if h.AggDir == matrix.DirRow {
				n.rowAgg = 2
			}
		case h.Kind == hop.OpBinary || h.Kind == hop.OpUnary:
			for _, in := range n.ins {
				if x := &c.nodes[in]; x.h.Rows == h.Rows && c.overRowAggregate(x) {
					n.rowAgg = 2
				}
			}
		}
	}
	return n.rowAgg == 2
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
