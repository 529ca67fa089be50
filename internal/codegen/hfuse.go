package codegen

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"sysml/internal/cplan"
	"sysml/internal/hop"
	"sysml/internal/matrix"
)

// Sibling fusion merges operators that each scan the same dominant input —
// e.g. colSums(X), sum(X^2), and a cellwise map over X — into one
// multi-output operator: one pass over X producing several outputs. It is
// the paper's multi-aggregate combining (§2.2, Fig. 1c), generalized beyond
// full aggregates. The plan search prices it (Coster.siblingSavings) and
// construction builds it (combineSiblings, before the vertical construction
// walk) with one candidate rule (Coster.sibling) and one grouping rule and
// cost gate (siblingGroups); merged members are marked so the walk does not
// build them again. A group of full aggregates only becomes a MAgg operator,
// the paper's 1×k SpoofMultiAggregate layout; any other group becomes a
// Horizontal operator, each root keeping its own output kind
// (cplan.Plan.HKinds).

// hfuseMaxGroup caps the sibling group size: each extra root adds per-row
// register and buffer pressure, and past a handful of outputs the shared
// scan no longer dominates.
const hfuseMaxGroup = 4

// sibling is one operator a merged scan can take in: h reads the cells of
// main (full: h is a full aggregate), and its body covers ops hops and skips
// the zeros of main (safe) or not.
type sibling struct {
	h, main    *hop.Hop
	full, safe bool
	ops        int
}

// mergeable returns the cells a merged scan would compute for h — an
// aggregate's input, the result of an element-wise h — or nil where h can
// join none (the cell skeleton folds sums, minima and maxima only).
func mergeable(h *hop.Hop) *hop.Hop {
	switch h.Kind {
	case hop.OpAggUnary:
		if x := h.Inputs[0]; x.Cols > 1 && !x.IsScalar() && h.AggOp != matrix.AggMean {
			return x
		}
	case hop.OpBinary, hop.OpUnary:
		if h.Cols > 1 && !h.IsScalar() {
			return h
		}
	}
	return nil
}

// mergeableScans maps each memo group in nodes (nil: every group) to the
// inputs a merged scan covering it could read as its main input (the input
// of an aggregate, an input of an element-wise hop of its own shape) and
// that enough of the groups scan for a merge of them to clear
// siblingGroups' gate, counting, under DisableHFuse, only full aggregates.
// Plans of two partitions that scan such an input are searched as one
// (BuildPartitions), and no cut set splits them (FindCutSets).
func mergeableScans(m *Memo, nodes map[int64]bool) map[int64][]*hop.Hop {
	cfg, by := m.cfg, map[*hop.Hop][]int64{}
	for id, g := range m.Groups {
		h := g.Hop
		if mergeable(h) == nil || nodes != nil && !nodes[id] || cfg.DisableHFuse && (h.Kind != hop.OpAggUnary || h.AggDir != matrix.DirAll || cfg.DisableMAgg) {
			continue
		}
		for _, in := range h.Inputs {
			if in.Rows == h.Rows && in.Cols == h.Cols || h.Kind == hop.OpAggUnary {
				by[in] = append(by[in], id)
			}
		}
	}
	out := map[int64][]*hop.Hop{}
	for x, hs := range by {
		if len(hs) > 1 && mergeSaving(cfg, x, min(len(hs), hfuseMaxGroup)) > hfuseMinGain {
			for _, id := range hs {
				out[id] = append(out[id], x)
			}
		}
	}
	return out
}

// mergeSaving is what one merged scan of x saves k operators that each scan
// it.
func mergeSaving(cfg *Config, x *hop.Hop, k int) float64 {
	return float64(k-1) * float64(x.ReadSizeBytes()) / cfg.Costs.ReadBW
}

// groupBuf is the scratch of siblingGroups, which the plan search reuses
// from one priced plan to the next.
type groupBuf struct {
	merged []bool
	g      []int
}

// siblingGroups is the grouping rule of sibling merges, the one construction
// and the plan search both call. In the order of cands (hop IDs), the first
// candidate not yet merged leads a group of the later ones with its main
// input that are not related to a member — one consumes the other, so the
// merge would create a cycle through the spoof — at most hfuseMaxGroup of
// them. DisableHFuse leaves only the full
// aggregates to group, and DisableMAgg drops the groups that hold nothing
// else. A group goes to merge, which reports whether it merged it, when the
// k−1 scans of the main input it saves clear hfuseMinGain and the mix
// penalty: over a sparse main, a member whose body is not sparse-safe drives
// the merged scan over every cell, the safe members' operations over the
// zeros too. decline, if not nil, hears every group the gate stops.
func siblingGroups(cfg *Config, cands []sibling, related func(a, b int) bool, buf *groupBuf, merge func(g []int, full bool) bool, decline func(g []int, saved, gate float64)) {
	buf.merged = append(buf.merged[:0], make([]bool, len(cands))...)
	merged := buf.merged
	out := func(a int) bool { return merged[a] || cfg.DisableHFuse && !cands[a].full }
	for a, lead := range cands {
		if out(a) {
			continue
		}
		g := append(buf.g[:0], a)
		for b := a + 1; b < len(cands) && len(g) < hfuseMaxGroup; b++ {
			if !out(b) && cands[b].main == lead.main && !slices.ContainsFunc(g, func(m int) bool { return related(b, m) }) {
				g = append(g, b)
			}
		}
		buf.g = g
		gate, safeOps, full, mixed := hfuseMinGain, 0, true, false
		for _, m := range g {
			full = full && cands[m].full
			if cands[m].safe {
				safeOps += cands[m].ops
			} else {
				mixed = true
			}
		}
		if len(g) < 2 || full && cfg.DisableMAgg {
			continue
		}
		x, mc := lead.main, cfg.Costs
		if mixed && x.IsSparse() {
			gate += float64(x.Cells()) * (1 - x.Sparsity()) * float64(safeOps) / mc.ComputeBW
		}
		if saved := mergeSaving(cfg, x, len(g)); saved <= gate {
			if decline != nil {
				decline(g, saved, gate)
			}
		} else if merge(g, full) {
			for _, m := range g {
				merged[m] = true
			}
		}
	}
}

// siblingSavings is what the sibling merges of the plan being priced save
// under the model: for each group siblingGroups merges, its members'
// operators less the one scan that replaces them, which writes what they
// write, reads each of their inputs once and computes what they compute.
func (c *Coster) siblingSavings() (saved float64) {
	c.cands, c.candAt = c.cands[:0], c.candAt[:0]
	for i := range c.nodes {
		if s, ok := c.sibling(int32(i)); ok {
			c.cands, c.candAt = append(c.cands, s), append(c.candAt, int32(i))
		}
	}
	if !slices.ContainsFunc(c.cands, func(a sibling) bool {
		return slices.ContainsFunc(c.cands, func(b sibling) bool { return a.h != b.h && a.main == b.main })
	}) {
		return 0 // no group to form
	}
	if c.related == nil {
		c.relate()
	}
	m := c.cfg.Costs
	related := func(a, b int) bool { return c.related[c.relIdx[c.candAt[a]]][c.relIdx[c.candAt[b]]] }
	siblingGroups(c.cfg, c.cands, related, &c.groups, func(g []int, _ bool) bool {
		var sec, out, in, fl float64
		safe := true
		c.opSeq++
		for _, a := range g {
			n := &c.nodes[c.at[c.cands[a].h.ID]]
			op, ins := n.op()
			sec, out, fl, safe = sec+op.sec, out+float64(n.h.OutputSizeBytes()), fl+op.fl, safe && op.safe
			for _, x := range ins {
				if xn := &c.nodes[x]; xn.asInput != c.opSeq {
					xn.asInput, in = c.opSeq, in+xn.bytes
				}
			}
		}
		scale := sparsityScale(cplan.TemplateMAgg, c.cands[g[0]].main, !safe)
		saved += sec - out/m.WriteBW - math.Max(in/m.ReadBW, fl*scale/m.ComputeBW)
		return true
	}, nil)
	return saved
}

// relate computes, once per partition, which two of the nodes that can be
// sibling candidates are related: c.relIdx numbers the mergeable nodes (-1
// for any other node) and c.related is their pair relation.
func (c *Coster) relate() {
	c.relIdx = make([]int32, len(c.nodes))
	var ms []*hop.Hop
	for i := range c.nodes {
		c.relIdx[i] = -1
		if h := c.nodes[i].h; mergeable(h) != nil {
			c.relIdx[i] = int32(len(ms))
			ms = append(ms, h)
		}
	}
	c.related = relation(ms)
}

// relation is the pair relation of hs: rel[a][b] when one of hs[a] and hs[b]
// consumes the other, which a merge of the two would turn into a cycle
// through the spoof. One walk below each member finds it.
func relation(hs []*hop.Hop) [][]bool {
	k := len(hs)
	rel, row := make([][]bool, k), make([]bool, k*k)
	type mark struct{ walk, member int } // per hop, both plus one
	marks := make(map[*hop.Hop]mark, k)
	for i, h := range hs {
		rel[i], marks[h] = row[i*k:(i+1)*k], mark{member: i + 1}
	}
	var below func(h *hop.Hop, from int)
	below = func(h *hop.Hop, from int) {
		if m := marks[h]; m.walk != from+1 {
			marks[h] = mark{from + 1, m.member}
			if to := m.member - 1; to >= 0 && to != from {
				rel[from][to], rel[to][from] = true, true
			}
			for _, in := range h.Inputs {
				below(in, from)
			}
		}
	}
	for from, h := range hs {
		below(h, from)
	}
	return rel
}

// sibling classifies node i as a sibling candidate under the plan c.q holds:
// the plan makes i, no consumer's operator fuses it, and the operator the
// plan opens at i — a Cell operator, or any over an aggregate's input, or
// none for a bare aggregate — is a cell body over an input of the shape it
// scans (the main input, sparse first): element-wise hops below the root,
// every other input a scalar, a row or a column of that shape.
func (c *Coster) sibling(i int32) (sibling, bool) {
	n := &c.nodes[i]
	h, x := n.h, mergeable(n.h)
	if x == nil || n.charged != c.plan {
		return sibling{}, false
	}
	agg := 0
	if h.Kind == hop.OpAggUnary {
		agg = 1
	} else if len(n.picks) == 0 || n.picks[0].e.Type != cplan.TemplateCell {
		return sibling{}, false
	}
	op, ins := n.op()
	main := operatorMain(cplan.TemplateHorizontal, h, nil, c, c.hops(ins))
	if main == nil || op.nonCell > agg {
		return sibling{}, false
	}
	for _, in := range ins {
		if y := c.nodes[in].h; y != main && y.Kind != hop.OpLiteral {
			if _, ok := accessFor(y, main.Rows, main.Cols); !ok {
				return sibling{}, false
			}
		}
	}
	for _, pi := range n.parents {
		if p := &c.nodes[pi]; p.charged == c.plan && len(p.picks) > 0 {
			for j, in := range p.ins {
				if e := p.picks[0].e; in == i && e.Inputs[j] >= 0 && !c.materialized(p, j) {
					if c.cont(n, e.Type) != nil {
						return sibling{}, false
					}
				}
			}
		}
	}
	return sibling{h: h, main: main, full: agg == 1 && h.AggDir == matrix.DirAll, safe: op.safe, ops: op.ops}, true
}

// combineSiblings merges the sibling groups over the whole DAG (order, a
// topological order of it) rather than the plan partitions because bare
// aggregates over a shared leaf (e.g. colSums(X)) carry no fusion reference
// and therefore appear in no partition: a partition node is a candidate as
// the plan search sees it (Coster.sibling), any other hop as a bare
// aggregate over a matrix.
func (c *constructor) combineSiblings(order []*hop.Hop) {
	byID := slices.Clone(order)
	slices.SortFunc(byID, func(a, b *hop.Hop) int { return cmp.Compare(a.ID, b.ID) })
	var cands []sibling
	for _, h := range byID {
		if i, ok := c.coster.at[h.ID]; ok && c.coster.nodes[i].inPart {
			if s, ok := c.coster.sibling(i); ok {
				cands = append(cands, s)
			}
		} else if x := mergeable(h); x != nil && h.Kind == hop.OpAggUnary && x.Kind != hop.OpLiteral {
			cands = append(cands, sibling{h: h, main: x, full: h.AggDir == matrix.DirAll, safe: true, ops: 1})
		}
	}
	hs := make([]*hop.Hop, len(cands))
	for i, s := range cands {
		hs[i] = s.h
	}
	rel := relation(hs)
	siblingGroups(c.cfg, cands, func(a, b int) bool { return rel[a][b] }, &groupBuf{},
		func(g []int, full bool) bool { return c.buildSiblingGroup(cands, g, full) },
		func(g []int, saved, gate float64) {
			c.recordHorizontal(cands, g, false, fmt.Sprintf("modeled saving %.3g s below gate %.3g s", saved, gate))
		})
}

// buildSiblingGroup constructs, compiles, and splices one sibling group
// that siblingGroups let through: a MAgg operator when every member is a
// full aggregate (full), its 1×k output read through Index extractors, a
// Horizontal one otherwise, each output read through its SpoofOut extractor.
// On any construction failure it returns false and the members stay
// available for vertical fusion.
func (c *constructor) buildSiblingGroup(cands []sibling, g []int, full bool) bool {
	main := cands[g[0]].main
	b := newCellBody(main, nil, main.Rows, main.Cols)
	plan := &cplan.Plan{Type: cplan.TemplateHorizontal}
	regions := make([]*region, len(g))
	for i, m := range g {
		it := cands[m]
		// The member's region: its operator's, or a bare aggregate's.
		r := &region{covered: map[int64]bool{it.h.ID: true}, leafSet: map[int64]bool{}}
		r.addLeaf(main)
		if picks := c.coster.pickEntries(it.h); len(picks) > 0 {
			r = c.collect(it.h, picks[0].e)
		}
		kind, agg, expr := cplan.CellNoAgg, matrix.AggSum, it.h
		if it.h.Kind == hop.OpAggUnary {
			kind, agg, expr = cellAggType(it.h.AggDir), it.h.AggOp, it.h.Inputs[0]
		}
		root, ok := b.build(expr, r)
		if !ok {
			return false
		}
		plan.Roots = append(plan.Roots, root)
		plan.AggOps = append(plan.AggOps, agg)
		plan.HKinds = append(plan.HKinds, kind)
		regions[i] = r
	}
	plan.NumSides, plan.SparseSafe = len(b.env.sides), cplan.ProbeSparseSafe(plan.Roots...)
	k := int64(len(g))
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
	for i, m := range g {
		it := cands[m]
		if full {
			splice(c.d, it.h, c.d.Index(spoof, 0, 1, int64(i), int64(i)+1))
		} else {
			splice(c.d, it.h, c.d.SpoofOut(spoof, i, it.h.Rows, it.h.Cols, it.h.Nnz))
		}
		// Continue fusing below the merged group's materialized inputs.
		c.want(regions[i].leaves)
		c.siblingMerged[it.h.ID] = true
	}
	c.recordHorizontal(cands, g, true, "")
	return true
}

// recordHorizontal appends one sibling-group decision to the EXPLAIN
// report's HORIZONTAL section.
func (c *constructor) recordHorizontal(cands []sibling, g []int, merged bool, reason string) {
	if c.rep == nil {
		return
	}
	rec := HorizontalGroup{Main: cands[g[0]].main.String(), Merged: merged, Reason: reason}
	for _, m := range g {
		rec.Members = append(rec.Members, cands[m].h.String())
	}
	c.rep.Horizontal = append(c.rep.Horizontal, rec)
}
