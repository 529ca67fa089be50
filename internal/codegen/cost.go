package codegen

import (
	"fmt"
	"math"
	"slices"
	"sort"

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
	memo *Memo
	part *Partition

	q map[Edge]bool // true = materialize: fusion refs over the edge invalid

	roots map[int64]bool // part.Roots as a set (MPCost)

	rowAgg map[int64]bool // overRowAggregate by hop, independent of q

	visitedMat map[int64]bool
	visitedOp  map[[2]int64]bool
	opSeq      int64
	total      float64
	budget     float64
	exceeded   bool
}

// NewCoster prepares a coster for one partition.
func NewCoster(cfg *Config, m *Memo, p *Partition) *Coster {
	return &Coster{cfg: cfg, memo: m, part: p}
}

// PlanCost computes C(Pi|q); costing stops early (returning +Inf) once the
// partial costs exceed budget (pass +Inf to disable the cutoff).
func (c *Coster) PlanCost(q map[Edge]bool, budget float64) float64 {
	c.q = q
	if c.visitedMat == nil {
		c.visitedMat = map[int64]bool{}
		c.visitedOp = map[[2]int64]bool{}
	} else {
		clear(c.visitedMat)
		clear(c.visitedOp)
	}
	c.total, c.budget, c.exceeded = 0, budget, false
	c.opSeq = 0
	for _, r := range c.part.Roots {
		c.costNode(c.memo.Hop(r))
		if c.exceeded {
			return math.Inf(1)
		}
	}
	return c.total
}

// opCtx is the cost vector of one (potential) fused operator: output size,
// accumulated compute, and distinct input sizes.
type opCtx struct {
	id     int64
	root   *hop.Hop
	tmpl   cplan.TemplateType
	flops  float64
	numOps int
	inputs map[int64]*hop.Hop
	// denseUse lists sparse inputs some covered operator reads element by
	// element (anything but a matrix product, its transpose, or a sum): a
	// Row operator cannot bind such a main input as sparse rows.
	denseUse []int64
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

// rowDensifySec is what a Row operator pays to run over a sparse main input
// it cannot bind as sparse rows (denseMain): every tile is written out
// dense and read back. Zero for every other operator.
func rowDensifySec(m CostModel, t cplan.TemplateType, main *hop.Hop, denseMain bool) float64 {
	if t != cplan.TemplateRow || !denseMain || main == nil || !main.IsSparse() {
		return 0
	}
	dense := float64(main.Cells()) * 8
	return dense/m.WriteBW + dense/m.ReadBW
}

func (c *Coster) costNode(h *hop.Hop) {
	if c.exceeded || c.visitedMat[h.ID] {
		return
	}
	c.visitedMat[h.ID] = true
	if !c.part.Nodes[h.ID] {
		// Input node: produced outside the partition; its read is accounted
		// by the consuming operator.
		return
	}
	entry, ok := c.pickEntry(h)
	if !ok {
		// Basic operator.
		c.addOpCost(h.OutputSizeBytes(), float64(h.ReadInputSizeBytes()), flops(h), 1, h)
		for _, in := range h.Inputs {
			if c.part.Nodes[in.ID] {
				c.costNode(in)
			}
		}
		return
	}
	// Open a fused operator at h.
	c.opSeq++
	cv := &opCtx{id: c.opSeq, root: h, tmpl: entry.Type, inputs: map[int64]*hop.Hop{}}
	c.addToOp(h, entry, cv)
	// Operator cost: write output once, read distinct inputs, compute.
	var inBytes float64
	var main *hop.Hop
	for _, in := range cv.inputs {
		inBytes += float64(in.ReadSizeBytes())
		main = mainInput(main, in)
	}
	denseMain := main != nil && slices.Contains(cv.denseUse, main.ID)
	c.total += rowDensifySec(c.cfg.Costs, cv.tmpl, main, denseMain)
	c.addOpCost(h.OutputSizeBytes(), inBytes, cv.flops, sparsityScale(cv.tmpl, main, denseMain), h)
	// Recurse into materialized inputs of the fused operator.
	ids := make([]int64, 0, len(cv.inputs))
	for id := range cv.inputs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if c.part.Nodes[id] {
			c.costNode(cv.inputs[id])
		}
	}
}

// addToOp accumulates hop h into the fused operator cv following the memo
// entry's fusion references; memoizing (hop, op) pairs returns zero cost
// for operators reachable over multiple paths within the same fused
// operator, while overlapping operators still count redundant compute.
func (c *Coster) addToOp(h *hop.Hop, entry Entry, cv *opCtx) {
	key := [2]int64{h.ID, cv.id}
	if c.visitedOp[key] {
		return
	}
	c.visitedOp[key] = true
	cv.flops += flops(h)
	cv.numOps++
	for j, in := range h.Inputs {
		if entry.Inputs[j] >= 0 && !c.q[Edge{h.ID, in.ID}] {
			if childEntry, ok := c.pickEntryCompat(in, entry.Type); ok {
				c.addToOp(in, childEntry, cv)
				continue
			}
		}
		cv.inputs[in.ID] = in
		if in.IsSparse() && !rowSparseCapableUse(h) {
			cv.denseUse = append(cv.denseUse, in.ID)
		}
	}
}

// addOpCost adds one operator's cost Tw + max(Tr, Tc), using broadcast
// bandwidth for the side inputs of distributed operators.
func (c *Coster) addOpCost(outBytes int64, inBytes, fl, scale float64, h *hop.Hop) {
	m := c.cfg.Costs
	tw := float64(outBytes) / m.WriteBW
	tr := inBytes / m.ReadBW
	if h.ExecType == hop.ExecDist {
		// Broadcast all but the largest input.
		var largest float64
		for _, in := range h.Inputs {
			if s := float64(in.ReadSizeBytes()); s > largest {
				largest = s
			}
		}
		side := inBytes - largest
		if side > 0 {
			tr = largest/m.ReadBW + side/m.BroadcastBW
		}
	}
	tc := fl * scale / m.ComputeBW
	c.total += tw + math.Max(tr*scale, tc)
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
// fused operator's estimates: the main-input sparsity for Outer templates
// and sparse-driving Cell/MAgg templates (§4.3). A Row operator exploits
// it only when the program can bind sparse rows (denseMain false);
// otherwise it computes over densified tiles at scale 1.
func sparsityScale(t cplan.TemplateType, main *hop.Hop, denseMain bool) float64 {
	if main == nil || !main.IsSparse() {
		return 1
	}
	switch t {
	case cplan.TemplateOuter:
		return main.Sparsity()
	case cplan.TemplateRow:
		if denseMain {
			return 1
		}
		// genexecSparse binds sparse rows; dense side work per row remains,
		// so scale conservatively.
		return math.Max(main.Sparsity(), 0.05)
	default:
		// Cell/MAgg/Horizontal: approximate sparse-safety by the presence
		// of the sparse main input (construction verifies exactly).
		return math.Max(main.Sparsity(), 0.01)
	}
}

// pickEntry selects the best memo entry at h under assignment q, or
// (zero, false) to execute h as a basic operator. The deterministic rule
// prefers sparsity-exploiting templates, then maximal fusion references.
func (c *Coster) pickEntry(h *hop.Hop) (Entry, bool) {
	g := c.memo.Get(h.ID)
	if g == nil {
		return Entry{}, false
	}
	e, _, ok := c.pick(g, h, -1, -1)
	return e, ok
}

// pickEntries returns the best valid entry of every template type at h,
// best first: pickEntry's choice followed by the alternatives construction
// falls back to when the preferred template cannot express the region.
func (c *Coster) pickEntries(h *hop.Hop) []Entry {
	g := c.memo.Get(h.ID)
	if g == nil {
		return nil
	}
	type scored struct {
		e     Entry
		score float64
	}
	var ranked []scored
	for _, t := range g.Types() {
		if e, score, ok := c.pick(g, h, -1, int(t)); ok {
			ranked = append(ranked, scored{e, score})
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].score > ranked[j].score })
	out := make([]Entry, len(ranked))
	for i, r := range ranked {
		out[i] = r.e
	}
	return out
}

func (c *Coster) pickEntryCompat(h *hop.Hop, t cplan.TemplateType) (Entry, bool) {
	g := c.memo.Get(h.ID)
	if g == nil {
		return Entry{}, false
	}
	e, _, ok := c.pick(g, h, int(t), -1)
	return e, ok
}

// pick scores the entries of g valid under q. wantType >= 0 restricts to
// entries that can continue an enclosing operator of that type; onlyType
// >= 0 restricts to that template type.
func (c *Coster) pick(g *Group, h *hop.Hop, wantType, onlyType int) (Entry, float64, bool) {
	best := Entry{}
	bestScore := math.Inf(-1)
	found := false
	for _, e := range g.Entries {
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
		for j, in := range h.Inputs {
			if e.Inputs[j] >= 0 && c.q[Edge{h.ID, in.ID}] {
				valid = false
				break
			}
		}
		if !valid {
			continue
		}
		score := float64(e.RefCount())*10 + c.typePreference(e.Type, h)
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
func (c *Coster) typePreference(t cplan.TemplateType, h *hop.Hop) float64 {
	sparseIn := false
	for _, in := range h.Inputs {
		if in.IsSparse() {
			sparseIn = true
			break
		}
	}
	switch t {
	case cplan.TemplateOuter:
		if sparseIn {
			return 4
		}
		return 1.5
	case cplan.TemplateMAgg:
		return 2
	case cplan.TemplateRow:
		if h.Cols > 1 && c.overRowAggregate(h) {
			return 3.5
		}
		return 2.5
	default:
		return 3 // Cell: the canonical template for element-wise chains
	}
}

// overRowAggregate reports whether the element-wise chain at h, inside the
// partition, reaches a row aggregate (M / rowSums(exp(M - rowMaxs(M)))): only
// a Row operator fuses the aggregate with the matrix it is combined with, in
// one pass over M, where Cell operators need every such vector materialized
// and a pass each. Over a vector that enters the partition from outside
// both templates cover the same operators.
func (c *Coster) overRowAggregate(h *hop.Hop) bool {
	if v, ok := c.rowAgg[h.ID]; ok {
		return v
	}
	v := false
	switch {
	case !c.part.Nodes[h.ID]:
	case h.Kind == hop.OpAggUnary:
		v = h.AggDir == matrix.DirRow
	case h.Kind == hop.OpBinary || h.Kind == hop.OpUnary:
		for _, in := range h.Inputs {
			v = v || (in.Rows == h.Rows && c.overRowAggregate(in))
		}
	}
	if c.rowAgg == nil {
		c.rowAgg = map[int64]bool{}
	}
	c.rowAgg[h.ID] = v
	return v
}

// StaticCost is the lower-bound component C_Pi independent of q: reading
// partition inputs, minimal compute (full sparsity exploitation, no
// redundancy), and writing partition roots (§4.4 cost-based pruning).
func (c *Coster) StaticCost() float64 {
	m := c.cfg.Costs
	var t float64
	for _, id := range c.part.Inputs {
		t += float64(c.memo.Hop(id).ReadSizeBytes()) / m.ReadBW
	}
	for id := range c.part.Nodes {
		h := c.memo.Hop(id)
		scale := 1.0
		for _, in := range h.Inputs {
			if in.IsSparse() {
				scale = math.Min(scale, in.Sparsity())
			}
		}
		t += flops(h) * scale / m.ComputeBW
	}
	for _, r := range c.part.Roots {
		t += float64(c.memo.Hop(r).OutputSizeBytes()) / m.WriteBW
	}
	return t
}

// MPCost is the plan-dependent lower-bound component: each distinct
// materialization target assigned true costs at least one write and one
// read (§4.4). A target that is a partition root (a written block output)
// has its write in StaticCost already and adds the read alone.
func (c *Coster) MPCost(points []Edge, q []bool) float64 {
	m := c.cfg.Costs
	if c.roots == nil {
		c.roots = map[int64]bool{}
		for _, r := range c.part.Roots {
			c.roots[r] = true
		}
	}
	seen := map[int64]bool{}
	var t float64
	for i, pt := range points {
		if !q[i] || seen[pt.To] {
			continue
		}
		seen[pt.To] = true
		size := float64(c.memo.Hop(pt.To).OutputSizeBytes())
		t += size / m.ReadBW
		if !c.roots[pt.To] {
			t += size / m.WriteBW
		}
	}
	return t
}
