package codegen

import (
	"slices"
	"sort"

	"sysml/internal/cplan"
	"sysml/internal/hop"
	"sysml/internal/matrix"
)

// Horizontal fusion merges sibling operators that each scan the same
// dominant input — e.g. colSums(X), sum(X^2), and a cellwise map over X —
// into one multi-output Horizontal operator: one pass over X producing
// several outputs. It generalizes the paper's multi-aggregate combining
// (§2.2, Fig. 1c) beyond full aggregates: row/column aggregates and NoAgg
// cellwise maps join the same scan, each root keeping its own output kind
// (cplan.Plan.HKinds). The pass runs before the vertical construction walk
// and before combineMultiAggregates; merged members are marked so neither
// re-fuses them. Pure full-aggregate groups are deliberately left to the
// multi-aggregate pass, which owns the paper's 1×k SpoofMultiAggregate
// layout.

// hfuseMaxGroup caps the sibling group size: each extra root adds per-row
// register and buffer pressure, and past a handful of outputs the shared
// scan no longer dominates.
const hfuseMaxGroup = 4

// hfuseCand is one sibling candidate: a cell-bound consumer of a dominant
// main input. expr is the fused cell expression below the output kind
// (nil when the candidate aggregates the main input directly, in which
// case the root is just Main(0)).
type hfuseCand struct {
	h      *hop.Hop
	kind   cplan.CellType
	agg    matrix.AggOp
	region *region
	main   *hop.Hop
	expr   *hop.Hop
}

// combineHorizontal finds sibling fusion groups over the whole DAG and
// splices one multi-output Horizontal operator per profitable group,
// rewiring each member's consumers through an OpSpoofOut extractor. It
// sweeps the DAG rather than the plan partitions because bare aggregates
// over a shared leaf (e.g. colSums(X)) carry no fusion reference and
// therefore appear in no partition.
func (c *constructor) combineHorizontal() {
	if c.cfg.DisableHFuse {
		return
	}
	// Deterministic candidate order: ascending hop ID (creation order).
	hops := map[int64]*hop.Hop{}
	var ids []int64
	var dfs func(h *hop.Hop)
	dfs = func(h *hop.Hop) {
		if _, ok := hops[h.ID]; ok {
			return
		}
		hops[h.ID] = h
		ids = append(ids, h.ID)
		for _, in := range h.Inputs {
			dfs(in)
		}
	}
	for _, r := range c.d.Roots() {
		dfs(r)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var cands []hfuseCand
	for _, id := range ids {
		h := hops[id]
		cand, ok := c.hfuseCandidate(h)
		if !ok || c.verticallyClaimed(cand.h) {
			continue
		}
		cands = append(cands, cand)
	}
	used := map[int64]bool{}
	for i := 0; i < len(cands); i++ {
		if used[cands[i].h.ID] {
			continue
		}
		group := []hfuseCand{cands[i]}
		for j := i + 1; j < len(cands) && len(group) < hfuseMaxGroup; j++ {
			cj := cands[j]
			if used[cj.h.ID] || cj.main != cands[i].main {
				continue
			}
			// Members that transitively consume each other cannot share one
			// scan (the merge would create a cycle through the spoof).
			indep := true
			for _, g := range group {
				if dependsOn(cj.h, g.h) || dependsOn(g.h, cj.h) {
					indep = false
					break
				}
			}
			if indep {
				group = append(group, cj)
			}
		}
		if len(group) < 2 {
			continue
		}
		pureFull := true
		for _, g := range group {
			if g.kind != cplan.CellFullAgg {
				pureFull = false
				break
			}
		}
		if pureFull {
			continue // combineMultiAggregates owns these
		}
		if c.buildHorizontalGroup(cands[i].main, group) {
			for _, g := range group {
				used[g.h.ID] = true
				c.inMAgg[g.h.ID] = true
			}
		}
	}
}

// hfuseCandidate classifies one hop as a sibling candidate: an aggregate
// (full, row, or column) over a fusable cell expression or straight over a
// matrix, or a NoAgg cellwise map with a Cell-template entry.
func (c *constructor) hfuseCandidate(h *hop.Hop) (hfuseCand, bool) {
	switch h.Kind {
	case hop.OpAggUnary:
		kind := cplan.CellFullAgg
		switch h.AggDir {
		case matrix.DirRow:
			kind = cplan.CellRowAgg
		case matrix.DirCol:
			kind = cplan.CellColAgg
		}
		expr := h.Inputs[0]
		if expr.Cols <= 1 || expr.IsScalar() || h.AggOp == matrix.AggMean {
			return hfuseCand{}, false // the cell skeleton folds sums, minima and maxima only
		}
		if entry, ok := c.coster.pickEntry(h); ok {
			r := c.collect(h, entry)
			if r.covered[expr.ID] {
				main := pickMain(r.leaves, expr.Rows, expr.Cols)
				if main == nil {
					return hfuseCand{}, false
				}
				return hfuseCand{h: h, kind: kind, agg: h.AggOp, region: r, main: main, expr: expr}, true
			}
		}
		// Bare aggregate over a materialized matrix (e.g. colSums(X)): it
		// joins a sibling group with root Main(0).
		if expr.Kind == hop.OpLiteral {
			return hfuseCand{}, false
		}
		r := &region{covered: map[int64]bool{h.ID: true}, leafSet: map[int64]bool{}}
		r.addLeaf(expr)
		return hfuseCand{h: h, kind: kind, agg: h.AggOp, region: r, main: expr}, true

	case hop.OpBinary, hop.OpUnary:
		if h.Cols <= 1 || h.IsScalar() {
			return hfuseCand{}, false
		}
		entry, ok := c.coster.pickEntry(h)
		if !ok || entry.Type != cplan.TemplateCell {
			return hfuseCand{}, false
		}
		r := c.collect(h, entry)
		main := pickMain(r.leaves, h.Rows, h.Cols)
		if main == nil {
			return hfuseCand{}, false
		}
		return hfuseCand{h: h, kind: cplan.CellNoAgg, agg: matrix.AggSum, region: r, main: main, expr: h}, true
	}
	return hfuseCand{}, false
}

// verticallyClaimed reports whether some parent's selected plan fuses h
// into its own region: stealing h into a horizontal group would break the
// larger vertical fusion the enumerator already paid for, so such
// candidates are left alone. Mirrors the collectInto fuse rule (a
// non-materialized fusion reference with a compatible child entry).
func (c *constructor) verticallyClaimed(h *hop.Hop) bool {
	for _, p := range h.Parents {
		entry, ok := c.coster.pickEntry(p)
		if !ok {
			continue
		}
		for j, in := range p.Inputs {
			if in != h || j >= len(entry.Inputs) || entry.Inputs[j] < 0 ||
				c.q[Edge{p.ID, h.ID}] {
				continue
			}
			if _, ok := c.coster.pickEntryCompat(h, entry.Type); ok {
				return true
			}
		}
	}
	return false
}

// buildHorizontalGroup constructs, cost-gates, compiles, and splices one
// sibling group. On any construction failure it returns false and the
// members stay available for vertical fusion; on a cost-gate decline the
// decision is recorded in the EXPLAIN report.
func (c *constructor) buildHorizontalGroup(main *hop.Hop, group []hfuseCand) bool {
	env := newSideEnv()
	var roots []*cplan.CNode
	var aggOps []matrix.AggOp
	var kinds []cplan.CellType
	for _, it := range group {
		var root *cplan.CNode
		if it.expr == nil || it.expr == main {
			root = cplan.Main(0)
		} else {
			var ok bool
			root, ok = c.buildCellNode(it.expr, it.region, main, env, main.Rows, main.Cols)
			if !ok {
				return false
			}
		}
		roots = append(roots, root)
		aggOps = append(aggOps, it.agg)
		kinds = append(kinds, it.kind)
	}
	numOps := make([]int, len(group))
	safe := make([]bool, len(roots))
	for i, r := range roots {
		numOps[i] = len(group[i].region.covered)
		safe[i] = cplan.ProbeSparseSafe(r)
	}
	m := c.cfg.Costs
	saved := horizontalSavings(m, len(group), float64(main.ReadSizeBytes()))
	gate := hfuseMinGain + horizontalMixPenalty(m, main, safe, numOps)
	if saved <= gate {
		c.recordHorizontal(main, group, false, declineReason(saved, gate))
		return false
	}
	plan := &cplan.Plan{
		Type:       cplan.TemplateHorizontal,
		Roots:      roots,
		AggOps:     aggOps,
		HKinds:     kinds,
		NumSides:   len(env.sides),
		SparseSafe: cplan.ProbeSparseSafe(roots...),
	}
	op, hit, err := c.compile(plan)
	if err != nil {
		return false
	}
	inputs := append([]*hop.Hop{main}, env.sides...)
	c.record("Horizontal", op, len(inputs), 1, int64(len(roots)), hit)
	// The spoof's own result is a dummy scalar; each output travels through
	// its OpSpoofOut extractor with the member's real dimensions.
	spoof := c.d.NewSpoof("Horizontal", op, 1, 1, 1, inputs...)
	regions := make([]*region, 0, len(group))
	for _, it := range group {
		regions = append(regions, it.region)
	}
	c.predictSpoof(spoof, cplan.TemplateHorizontal, regions)
	for k, it := range group {
		extract := c.d.SpoofOut(spoof, k, it.h.Rows, it.h.Cols, it.h.Nnz)
		c.splice(it.h, extract)
	}
	c.recordHorizontal(main, group, true, "")
	// Continue fusing below the merged group's materialized inputs.
	for _, it := range group {
		c.want(it.region.leaves)
	}
	// Member interiors that stay live — block outputs, or consumers outside
	// the merged regions — still need their own plans: their partition
	// roots were claimed by the merge, so the main sweep would not build them.
	coveredAll := map[int64]bool{}
	for _, it := range group {
		for id := range it.region.covered {
			coveredAll[id] = true
		}
	}
	outIDs := map[int64]bool{}
	for _, name := range c.d.OutputNames() {
		if o := c.d.Outputs[name]; o != nil {
			outIDs[o.ID] = true
		}
	}
	for _, it := range group {
		for id := range it.region.covered {
			x := c.memo.Hop(id)
			if id == it.h.ID || x == nil {
				continue
			}
			if outIDs[id] || slices.ContainsFunc(x.Parents, func(p *hop.Hop) bool { return !coveredAll[p.ID] }) {
				c.wanted[id] = true
			}
		}
	}
	return true
}

// recordHorizontal appends one sibling-group decision to the EXPLAIN
// report's HORIZONTAL section.
func (c *constructor) recordHorizontal(main *hop.Hop, group []hfuseCand, merged bool, reason string) {
	if c.rep == nil {
		return
	}
	g := HorizontalGroup{Main: main.String(), Merged: merged, Reason: reason}
	for _, it := range group {
		g.Members = append(g.Members, it.h.String())
	}
	c.rep.Horizontal = append(c.rep.Horizontal, g)
}
