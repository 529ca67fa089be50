package codegen

import (
	"slices"
	"sort"

	"sysml/internal/hop"
)

// Edge is a data dependency (consumer -> input) that is an interesting
// point: a boolean materialization decision of the plan search space (§4.2).
type Edge struct {
	From, To int64
}

// Partition is a connected component of partial fusion plans: nodes not
// reachable via fusion references from other partitions, optimized and
// costed independently (§4.2).
type Partition struct {
	Nodes map[int64]bool
	// Roots are the nodes that are materialized under every plan: entry
	// points never referenced via fusion from within, followed by the nodes
	// that are, and are block outputs (a written variable is stored whether
	// or not a consumer also fuses it) or are read by an operator outside
	// the partition, which no plan of this partition fuses them into.
	// Consumers precede what they consume, so walking Roots in order
	// constructs a fusing consumer before the output it absorbed.
	Roots  []int64
	Inputs []int64 // nodes read by the partition but outside it
	// MatPoints are materialization points: partition nodes with multiple
	// consumers, a block output's store counting as one.
	MatPoints []int64
	// Points are the interesting points M'i: materialization-point
	// consumers and template switches.
	Points []Edge
}

// BuildPartitions analyzes the populated memo table and returns the plan
// partitions with their interesting points.
func BuildPartitions(m *Memo, roots []*hop.Hop) []*Partition {
	written := map[int64]bool{}
	for _, r := range roots {
		written[r.ID] = true
	}
	// Collect fusion-reference edges between groups.
	type refEdge struct{ from, to int64 }
	var refs []refEdge
	referenced := map[int64]bool{}
	for id, g := range m.Groups {
		for _, e := range g.Entries {
			for _, to := range e.Refs() {
				refs = append(refs, refEdge{id, to})
				referenced[to] = true
			}
		}
	}
	// Union-find over fusion references.
	parent := map[int64]int64{}
	var find func(x int64) int64
	find = func(x int64) int64 {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p != x {
			parent[x] = find(p)
		}
		return parent[x]
	}
	union := func(a, b int64) { parent[find(a)] = find(b) }
	for id := range m.Groups {
		find(id)
	}
	for _, r := range refs {
		union(r.from, r.to)
	}
	// Group nodes by component.
	comps := map[int64]*Partition{}
	for id := range m.Groups {
		root := find(id)
		p, ok := comps[root]
		if !ok {
			p = &Partition{Nodes: map[int64]bool{}}
			comps[root] = p
		}
		p.Nodes[id] = true
	}
	// Fill per-partition metadata.
	var out []*Partition
	for _, p := range comps {
		fillPartition(p, m, referenced, written)
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return minID(out[i]) < minID(out[j]) })
	return out
}

func minID(p *Partition) int64 {
	min := int64(1 << 62)
	for id := range p.Nodes {
		if id < min {
			min = id
		}
	}
	return min
}

func fillPartition(p *Partition, m *Memo, referenced, written map[int64]bool) {
	inputSeen := map[int64]bool{}
	var fusedOutputs []int64
	for id := range p.Nodes {
		h := m.Hop(id)
		if !referenced[id] {
			p.Roots = append(p.Roots, id)
		} else if written[id] || slices.ContainsFunc(h.Parents, func(c *hop.Hop) bool { return !p.Nodes[c.ID] }) {
			fusedOutputs = append(fusedOutputs, id)
		}
		for _, in := range h.Inputs {
			if !p.Nodes[in.ID] && !inputSeen[in.ID] {
				inputSeen[in.ID] = true
				p.Inputs = append(p.Inputs, in.ID)
			}
		}
	}
	sort.Slice(p.Roots, func(i, j int) bool { return p.Roots[i] < p.Roots[j] })
	sort.Slice(p.Inputs, func(i, j int) bool { return p.Inputs[i] < p.Inputs[j] })

	rootSet := map[int64]bool{}
	for _, r := range p.Roots {
		rootSet[r] = true
	}
	// Materialization points: multiple consumers and not an entry point
	// (nothing fuses an entry point, so there is nothing to decide).
	for id := range p.Nodes {
		h := m.Hop(id)
		consumers := h.NumConsumers()
		if written[id] {
			consumers++
		}
		if consumers > 1 && !rootSet[id] {
			p.MatPoints = append(p.MatPoints, id)
		}
	}
	// HOP ids grow from inputs to consumers: descending order puts every
	// fused output after the outputs that consume it.
	sort.Slice(fusedOutputs, func(i, j int) bool { return fusedOutputs[i] > fusedOutputs[j] })
	p.Roots = append(p.Roots, fusedOutputs...)
	sort.Slice(p.MatPoints, func(i, j int) bool { return p.MatPoints[i] < p.MatPoints[j] })

	// Interesting points: (1) each consumer of a materialization point with
	// a fusion alternative; (2) template switches.
	pointSet := map[Edge]bool{}
	addPoint := func(e Edge) {
		if !pointSet[e] {
			pointSet[e] = true
			p.Points = append(p.Points, e)
		}
	}
	matSet := map[int64]bool{}
	for _, id := range p.MatPoints {
		matSet[id] = true
	}
	for id := range p.Nodes {
		g := m.Get(id)
		edges := map[int64]bool{}
		for _, e := range g.Entries {
			for _, to := range e.Refs() {
				edges[to] = true
			}
		}
		for to := range edges {
			if matSet[to] {
				addPoint(Edge{id, to})
				continue
			}
			// Template switch: the input group has template types the
			// consumer group lacks (e.g. an Outer plan below a Cell plan).
			if hasTypeSwitch(m.Get(id), m.Get(to)) {
				addPoint(Edge{id, to})
				continue
			}
			// Broadcast point: fusing a driver-computable vector chain into
			// a distributed operator turns the chain's inputs into
			// broadcasts (§4.4 constraints and distributed operations;
			// Table 6 Gen-FA pathology). Materializing keeps the chain on
			// the driver with a single broadcast of its result.
			consumer, input := m.Hop(id), m.Hop(to)
			if consumer.ExecType == hop.ExecDist && input.IsVector() && !input.IsScalar() {
				addPoint(Edge{id, to})
			}
		}
	}
	sort.Slice(p.Points, func(i, j int) bool {
		if p.Points[i].From != p.Points[j].From {
			return p.Points[i].From < p.Points[j].From
		}
		return p.Points[i].To < p.Points[j].To
	})
}

func hasTypeSwitch(consumer, input *Group) bool {
	if consumer == nil || input == nil {
		return false
	}
	ctypes := map[string]bool{}
	for _, t := range consumer.Types() {
		ctypes[t.String()] = true
	}
	for _, t := range input.Types() {
		if !ctypes[t.String()] {
			return true
		}
	}
	return false
}

// CutSet is a fusion barrier: a set of partition nodes all of whose
// consumers above it are interesting points. Assigning those points
// (Points) true splits the remaining ones into independent subproblems S1
// (above the barrier) and S2 (at and below it).
type CutSet struct {
	Points []int // indexes into Partition.Points
	S1, S2 []int
	Score  float64
}

// FindCutSets returns the valid cut sets ordered by ascending score (Eq. 5).
// Candidates are the targets of the interesting points, alone and in pairs.
// One is valid if nothing below it is reachable from the partition's roots
// around it: then no operator opened above the barrier covers a node below
// it once its points are materialized, none opened below covers one above,
// and no node is materialized on behalf of both sides, so the cost of a plan
// is a sum of a term in S1's points and a term in S2's (§4.4).
func FindCutSets(m *Memo, p *Partition) []CutSet {
	n := len(p.Points)
	if n < 3 {
		return nil
	}
	var targets []int64
	for _, pt := range p.Points {
		if !slices.Contains(targets, pt.To) {
			targets = append(targets, pt.To)
		}
	}
	slices.Sort(targets)
	candidates := make([][]int64, 0, 64)
	for _, t := range targets {
		candidates = append(candidates, []int64{t})
	}
	for i := 0; i < len(targets) && len(candidates) < 64; i++ {
		for _, u := range targets[i+1:] {
			candidates = append(candidates, []int64{targets[i], u})
		}
	}
	// reach marks the partition nodes reachable from the given ones without
	// descending through a barrier node.
	reach := func(from []int64, barrier []int64, seen map[int64]bool) {
		var visit func(id int64)
		visit = func(id int64) {
			if seen[id] || !p.Nodes[id] {
				return
			}
			seen[id] = true
			if !slices.Contains(barrier, id) {
				for _, in := range m.Hop(id).Inputs {
					visit(in.ID)
				}
			}
		}
		for _, id := range from {
			visit(id)
		}
	}
	var out []CutSet
	above, below := map[int64]bool{}, map[int64]bool{}
	for _, barrier := range candidates {
		clear(above)
		clear(below)
		reach(p.Roots, barrier, above)
		for _, t := range barrier {
			for _, in := range m.Hop(t).Inputs {
				reach([]int64{in.ID}, nil, below)
			}
		}
		valid := true
		for id := range below {
			valid = valid && !above[id]
		}
		var cs, s1, s2 []int
		for j, pt := range p.Points {
			switch onBarrier := slices.Contains(barrier, pt.To); {
			case !above[pt.From] || slices.Contains(barrier, pt.From):
				s2 = append(s2, j)
			case onBarrier:
				cs = append(cs, j)
			default:
				s1 = append(s1, j)
			}
		}
		if valid && len(cs) > 0 && len(s1) > 0 && len(s2) > 0 {
			out = append(out, CutSet{Points: cs, S1: s1, S2: s2, Score: cutScore(len(cs), len(s1), len(s2), n)})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score < out[j].Score })
	return out
}

// cutScore implements Eq. (5): (2^|cs|-1)/2^|cs| * 2^|M'| + 1/2^|cs| *
// (2^|S1| + 2^|S2|), balancing cut set size against partitioning quality.
func cutScore(cs, s1, s2, m int) float64 {
	p2 := func(k int) float64 { return float64(int64(1) << uint(min(k, 62))) }
	return (p2(cs)-1)/p2(cs)*p2(m) + 1/p2(cs)*(p2(s1)+p2(s2))
}
