package codegen

import (
	"slices"

	"sysml/internal/cplan"
	"sysml/internal/hop"
)

// Explorer populates the memo table with all valid partial fusion plans in
// a single bottom-up pass over the HOP DAG (Algorithm 1, OFMC Explore).
type Explorer struct {
	cfg   *Config
	memo  *Memo
	tmpls []Template
}

// Explore runs candidate exploration over all DAG roots and returns the
// populated memo table.
func Explore(roots []*hop.Hop, cfg *Config) *Memo {
	e := &Explorer{cfg: cfg, memo: NewMemo(), tmpls: templates(cfg)}
	e.memo.cfg = cfg
	for _, r := range roots {
		e.explore(r)
	}
	return e.memo
}

func (e *Explorer) explore(h *hop.Hop) {
	// Memoization of processed operators (lines 1-3).
	if e.memo.visited[h.ID] {
		return
	}
	e.memo.hops[h.ID] = h
	// Recursive candidate exploration (lines 4-6).
	for _, in := range h.Inputs {
		e.explore(in)
	}
	// Open initial operator plans (lines 7-10).
	for _, t := range e.tmpls {
		if t.Open(h) {
			e.memo.add(h, e.createPlans(h, nil, t)...)
		}
	}
	// Fuse and merge operator plans (lines 11-15).
	for _, in := range h.Inputs {
		g := e.memo.Get(in.ID)
		if g == nil {
			continue
		}
		for _, tt := range g.Types() {
			if !g.HasOpenType(tt) {
				continue
			}
			t := e.templateFor(tt)
			if t.Fuse(h, in) {
				e.memo.add(h, e.createPlans(h, in, t)...)
			}
		}
	}
	// Close handling happens inside createPlans (the close status depends
	// only on the template and the current operator); prune and memoize
	// (lines 21-23).
	e.pruneRedundant(h)
	e.memo.visited[h.ID] = true
}

func (e *Explorer) templateFor(tt cplan.TemplateType) Template {
	return e.tmpls[int(tt)]
}

// createPlans constructs memo entries for template t at h: a required
// fusion reference at fusedIn (nil when opening) plus the enumeration of
// all local merge combinations at the remaining inputs (§3.2).
func (e *Explorer) createPlans(h, fusedIn *hop.Hop, t Template) []Entry {
	closed := t.Close(h)
	if closed == StatusClosedInvalid {
		return nil
	}
	base := make([]int64, len(h.Inputs))
	var optional []int
	for j, in := range h.Inputs {
		base[j] = -1
		if fusedIn != nil && in == fusedIn {
			base[j] = in.ID
			continue
		}
		if t.Merge(h, in) && e.compatibleRef(t.Type(), in) {
			optional = append(optional, j)
		}
	}
	n := 1 << len(optional)
	entries := make([]Entry, 0, n)
	for mask := 0; mask < n; mask++ {
		inputs := append([]int64(nil), base...)
		for bit, j := range optional {
			if mask&(1<<bit) != 0 {
				inputs[j] = h.Inputs[j].ID
			}
		}
		entries = append(entries, Entry{Type: t.Type(), Inputs: inputs, Closed: closed})
	}
	return entries
}

// compatibleRef reports whether input in holds an open plan that a
// template of type tt can reference: same type, or a Cell plan (Cell
// templates merge into all other templates).
func (e *Explorer) compatibleRef(tt cplan.TemplateType, in *hop.Hop) bool {
	g := e.memo.Get(in.ID)
	if g == nil {
		return false
	}
	if g.HasOpenType(tt) {
		return true
	}
	return tt != cplan.TemplateCell && g.HasOpenType(cplan.TemplateCell)
}

// pruneRedundant drops duplicate plans (handled by Memo.add) and closed
// valid entries without group references, which would cover only a single
// operator (§3.2 pruning, e.g. no C(-1) at a rowSums).
func (e *Explorer) pruneRedundant(h *hop.Hop) {
	e.memo.remove(h.ID, func(en Entry) bool {
		return en.Closed == StatusClosedValid && !en.HasRef()
	})
}

// PruneDominated removes dominated plans: an entry is dominated if another
// entry of the same type has a strict superset of its references and every
// reference it adds points to an operator consumed exactly once, which no
// plan has a reason to materialize (§3.2). Only valid for selection policies
// that consider materialization points with multiple consumers, i.e. the
// heuristics.
func PruneDominated(m *Memo) {
	for _, g := range m.Groups {
		g.Entries = slices.DeleteFunc(slices.Clone(g.Entries), func(a Entry) bool {
			return slices.ContainsFunc(g.Entries, func(b Entry) bool {
				return a.Type == b.Type && a.Closed == b.Closed && dominates(b, a, g.Hop)
			})
		})
	}
}

// dominates reports whether b's reference positions strictly contain a's
// and the inputs of h that only b references have a single consumer.
func dominates(b, a Entry, h *hop.Hop) bool {
	strict := false
	for j := range a.Inputs {
		aRef, bRef := a.Inputs[j] >= 0, b.Inputs[j] >= 0
		if aRef && !bRef || bRef && !aRef && h.Inputs[j].NumConsumers() > 1 {
			return false
		}
		strict = strict || bRef && !aRef
	}
	return strict
}
