package codegen

import (
	"cmp"
	"slices"

	"sysml/internal/cplan"
	"sysml/internal/hop"
	"sysml/internal/matrix"
)

// Sibling fusion merges operators that each scan the same dominant input —
// e.g. colSums(X), sum(X^2), and a cellwise map over X — into one
// multi-output operator: one pass over X producing several outputs. It is
// the paper's multi-aggregate combining (§2.2, Fig. 1c), generalized beyond
// full aggregates. One pass, combineSiblings, runs before the vertical
// construction walk, with one candidate rule, one grouping rule, one cost gate
// and one builder; merged members are marked so the walk does not build them
// again. A group of full aggregates only becomes a MAgg operator, the paper's
// 1×k SpoofMultiAggregate layout; any other group becomes a Horizontal
// operator, each root keeping its own output kind (cplan.Plan.HKinds).

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

// combineSiblings finds sibling groups over the whole DAG and splices one
// multi-output operator per profitable group. It sweeps the DAG (order, a
// topological order of it) rather than the plan partitions because bare
// aggregates over a shared leaf (e.g. colSums(X)) carry no fusion reference
// and therefore appear in no partition. A group is candidates with the same
// main input that do not consume each other, at most hfuseMaxGroup of them,
// led by the first unmerged candidate in hop-ID (creation) order.
// DisableHFuse leaves only the full aggregates to group, and DisableMAgg
// drops the groups that hold nothing else.
func (c *constructor) combineSiblings(order []*hop.Hop) {
	byID := slices.Clone(order)
	slices.SortFunc(byID, func(a, b *hop.Hop) int { return cmp.Compare(a.ID, b.ID) })
	var cands []hfuseCand
	for _, h := range byID {
		cand, ok := c.hfuseCandidate(h)
		if !ok || c.verticallyClaimed(h) || c.cfg.DisableHFuse && cand.kind != cplan.CellFullAgg {
			continue
		}
		cands = append(cands, cand)
	}
	for i, lead := range cands {
		if c.siblingMerged[lead.h.ID] {
			continue
		}
		group := []hfuseCand{lead}
		for _, cj := range cands[i+1:] {
			if len(group) == hfuseMaxGroup {
				break
			}
			// Members that transitively consume each other cannot share one
			// scan (the merge would create a cycle through the spoof).
			if !c.siblingMerged[cj.h.ID] && cj.main == lead.main && !slices.ContainsFunc(group, func(g hfuseCand) bool {
				return dependsOn(cj.h, g.h) || dependsOn(g.h, cj.h)
			}) {
				group = append(group, cj)
			}
		}
		full := !slices.ContainsFunc(group, func(g hfuseCand) bool { return g.kind != cplan.CellFullAgg })
		if len(group) < 2 || full && c.cfg.DisableMAgg || !c.buildSiblingGroup(lead.main, group, full) {
			continue
		}
		for _, g := range group {
			c.siblingMerged[g.h.ID] = true
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
// into its own region: stealing h into a sibling group would break the
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

// buildSiblingGroup constructs, cost-gates, compiles, and splices one
// sibling group: a MAgg operator when every member is a full aggregate
// (full), its 1×k output read through Index extractors, a Horizontal one
// otherwise, each output read through its SpoofOut extractor. On any
// construction failure it returns false and the members stay available for
// vertical fusion; on a cost-gate decline the decision is recorded in the
// EXPLAIN report.
func (c *constructor) buildSiblingGroup(main *hop.Hop, group []hfuseCand, full bool) bool {
	b := newCellBody(main, nil, main.Rows, main.Cols)
	plan := &cplan.Plan{Type: cplan.TemplateHorizontal}
	numOps := make([]int, len(group))
	safe := make([]bool, len(group))
	regions := make([]*region, len(group))
	for i, it := range group {
		root := cplan.Main(0)
		if it.expr != nil && it.expr != main {
			var ok bool
			if root, ok = b.build(it.expr, it.region); !ok {
				return false
			}
		}
		plan.Roots = append(plan.Roots, root)
		plan.AggOps = append(plan.AggOps, it.agg)
		plan.HKinds = append(plan.HKinds, it.kind)
		numOps[i], safe[i], regions[i] = len(it.region.covered), cplan.ProbeSparseSafe(root), it.region
	}
	m := c.cfg.Costs
	saved := horizontalSavings(m, len(group), float64(main.ReadSizeBytes()))
	gate := hfuseMinGain + horizontalMixPenalty(m, main, safe, numOps)
	if saved <= gate {
		c.recordHorizontal(main, group, false, declineReason(saved, gate))
		return false
	}
	plan.NumSides, plan.SparseSafe = len(b.env.sides), cplan.ProbeSparseSafe(plan.Roots...)
	k := int64(len(group))
	cols := int64(1) // a Horizontal operator's own result is a dummy scalar
	if full {
		plan.Type, plan.HKinds, cols = cplan.TemplateMAgg, nil, k
	}
	op, hit, err := c.compile(plan)
	if err != nil {
		return false
	}
	inputs := b.inputs()
	c.record(plan.Type.String(), op, len(inputs), 1, k, hit)
	spoof := c.d.NewSpoof(plan.Type.String(), op, 1, cols, cols, inputs...)
	c.predictSpoof(spoof, plan.Type, regions)
	for i, it := range group {
		if full {
			c.splice(it.h, c.d.Index(spoof, 0, 1, int64(i), int64(i)+1))
		} else {
			c.splice(it.h, c.d.SpoofOut(spoof, i, it.h.Rows, it.h.Cols, it.h.Nnz))
		}
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
