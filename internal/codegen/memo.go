package codegen

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"sysml/internal/cplan"
	"sysml/internal/hop"
)

// Entry is a memo table entry: one partial fusion plan
// (type, {i1,...,ik}, closed) per §3.1. Inputs aligns with the HOP's input
// positions; each element is either the referenced group ID (fusion) or -1
// (materialized intermediate).
type Entry struct {
	Type   cplan.TemplateType
	Inputs []int64
	Closed CloseStatus
}

// HasRef reports whether the entry references any input group.
func (e Entry) HasRef() bool {
	for _, in := range e.Inputs {
		if in >= 0 {
			return true
		}
	}
	return false
}

// RefCount returns the number of referenced input groups.
func (e Entry) RefCount() int {
	n := 0
	for _, in := range e.Inputs {
		if in >= 0 {
			n++
		}
	}
	return n
}

// Refs returns the entry's referenced group IDs.
func (e Entry) Refs() []int64 {
	var out []int64
	for _, in := range e.Inputs {
		if in >= 0 {
			out = append(out, in)
		}
	}
	return out
}

// same reports whether two entries are the same plan: equal template type
// and fusion references (the close status does not distinguish them).
func (e Entry) same(o Entry) bool {
	return e.Type == o.Type && slices.Equal(e.Inputs, o.Inputs)
}

// String renders the entry in the paper's notation, e.g. "R(10,9)".
func (e Entry) String() string {
	letter := map[cplan.TemplateType]string{
		cplan.TemplateCell: "C", cplan.TemplateRow: "R",
		cplan.TemplateMAgg: "M", cplan.TemplateOuter: "O",
	}[e.Type]
	parts := make([]string, len(e.Inputs))
	for i, in := range e.Inputs {
		parts[i] = fmt.Sprintf("%d", in)
	}
	s := letter + "(" + strings.Join(parts, ",") + ")"
	if e.Closed == StatusClosedValid {
		s += "*"
	}
	return s
}

// Group holds all partial fusion plans for one operator's output (§3.1).
type Group struct {
	Hop     *hop.Hop
	Entries []Entry
}

// HasOpenType reports whether the group contains an open (not closed)
// entry of type t, i.e. a plan that can still be extended by consumers.
func (g *Group) HasOpenType(t cplan.TemplateType) bool {
	for _, e := range g.Entries {
		if e.Type == t && e.Closed == StatusOpen {
			return true
		}
	}
	return false
}

// Types returns the distinct template types present in the group.
func (g *Group) Types() []cplan.TemplateType {
	seen := map[cplan.TemplateType]bool{}
	var out []cplan.TemplateType
	for _, e := range g.Entries {
		if !seen[e.Type] {
			seen[e.Type] = true
			out = append(out, e.Type)
		}
	}
	return out
}

// Memo is the memoization table of partial fusion plans, organized by
// operator (group) ID.
type Memo struct {
	Groups  map[int64]*Group
	visited map[int64]bool
	hops    map[int64]*hop.Hop
	cfg     *Config // what Explore ran with; the partitions read the merge gate's costs
}

// NewMemo returns an empty memo table.
func NewMemo() *Memo {
	return &Memo{
		Groups:  map[int64]*Group{},
		visited: map[int64]bool{},
		hops:    map[int64]*hop.Hop{},
	}
}

// Contains reports whether the operator has a group with at least one plan.
func (m *Memo) Contains(id int64) bool {
	g, ok := m.Groups[id]
	return ok && len(g.Entries) > 0
}

// Get returns the group for an operator ID, or nil.
func (m *Memo) Get(id int64) *Group {
	return m.Groups[id]
}

// Hop resolves an operator ID to its HOP.
func (m *Memo) Hop(id int64) *hop.Hop { return m.hops[id] }

// add inserts entries into h's group, deduplicating by structural key.
func (m *Memo) add(h *hop.Hop, entries ...Entry) {
	if len(entries) == 0 {
		return
	}
	g, ok := m.Groups[h.ID]
	if !ok {
		g = &Group{Hop: h}
		m.Groups[h.ID] = g
		m.hops[h.ID] = h
	}
	for _, e := range entries {
		dup := false
		for _, old := range g.Entries {
			if old.same(e) {
				dup = true
				break
			}
		}
		if !dup {
			g.Entries = append(g.Entries, e)
		}
	}
}

// remove drops entries matching the predicate from h's group.
func (m *Memo) remove(id int64, drop func(Entry) bool) {
	g := m.Groups[id]
	if g == nil {
		return
	}
	kept := g.Entries[:0]
	for _, e := range g.Entries {
		if !drop(e) {
			kept = append(kept, e)
		}
	}
	g.Entries = kept
	if len(g.Entries) == 0 {
		delete(m.Groups, id)
	}
}

// String renders the memo table in the paper's Fig. 5 style for debugging.
func (m *Memo) String() string {
	ids := make([]int64, 0, len(m.Groups))
	for id := range m.Groups {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] > ids[j] })
	var b strings.Builder
	for _, id := range ids {
		g := m.Groups[id]
		fmt.Fprintf(&b, "%d %v:", id, g.Hop)
		for _, e := range g.Entries {
			fmt.Fprintf(&b, " %v", e)
		}
		b.WriteString("\n")
	}
	return b.String()
}
