package codegen

import (
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
	// points never referenced via fusion from within, followed by block
	// outputs that are (a written variable is stored whether or not a
	// consumer also fuses it). Consumers precede what they consume, so
	// walking Roots in order constructs a fusing consumer before the
	// output it absorbed.
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
		} else if written[id] {
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

// ReachGraph captures reachability between interesting points for
// structural pruning (§4.4): point b is below point a if b's target is
// reachable from a's target through partition-internal inputs.
type ReachGraph struct {
	below [][]bool // below[i][j]: j strictly below i
	n     int
}

// BuildReachGraph computes the reachability relation over the partition's
// interesting points.
func BuildReachGraph(m *Memo, p *Partition) *ReachGraph {
	n := len(p.Points)
	rg := &ReachGraph{n: n, below: make([][]bool, n)}
	// Node reachability within partition by DFS over inputs.
	reach := map[int64]map[int64]bool{}
	var dfs func(id int64) map[int64]bool
	dfs = func(id int64) map[int64]bool {
		if r, ok := reach[id]; ok {
			return r
		}
		r := map[int64]bool{}
		reach[id] = r
		h := m.Hop(id)
		if h == nil {
			return r
		}
		for _, in := range h.Inputs {
			if !p.Nodes[in.ID] {
				continue
			}
			r[in.ID] = true
			for x := range dfs(in.ID) {
				r[x] = true
			}
		}
		return r
	}
	for i := range p.Points {
		rg.below[i] = make([]bool, n)
		ri := dfs(p.Points[i].To)
		for j := range p.Points {
			if i == j {
				continue
			}
			if ri[p.Points[j].To] {
				rg.below[i][j] = true
			}
		}
	}
	return rg
}

// CutSet is a candidate fusion barrier: assigning all its points true
// splits the remaining points into independent subproblems S1 (above) and
// S2 (below).
type CutSet struct {
	Points []int // indexes into Partition.Points
	S1, S2 []int
	Score  float64
}

// FindCutSets returns valid cut sets ordered by ascending score (Eq. 5):
// candidates are single points, composite points with equivalent targets,
// and non-overlapping pairs.
func FindCutSets(m *Memo, p *Partition, rg *ReachGraph) []CutSet {
	n := len(p.Points)
	if n < 3 {
		return nil
	}
	var candidates [][]int
	for i := 0; i < n; i++ {
		candidates = append(candidates, []int{i})
	}
	// Composite points over the same target node.
	byTarget := map[int64][]int{}
	for i, pt := range p.Points {
		byTarget[pt.To] = append(byTarget[pt.To], i)
	}
	for _, idxs := range byTarget {
		if len(idxs) > 1 {
			candidates = append(candidates, idxs)
		}
	}
	// Non-overlapping pairs of the above.
	base := append([][]int(nil), candidates...)
	for i := 0; i < len(base) && len(candidates) < 64; i++ {
		for j := i + 1; j < len(base); j++ {
			if overlaps(base[i], base[j]) {
				continue
			}
			candidates = append(candidates, append(append([]int(nil), base[i]...), base[j]...))
		}
	}
	var out []CutSet
	for _, cs := range candidates {
		inCS := map[int]bool{}
		for _, i := range cs {
			inCS[i] = true
		}
		var s1, s2 []int
		for j := 0; j < n; j++ {
			if inCS[j] {
				continue
			}
			// j is below the cut set if reachable from any cut point.
			below := false
			for _, c := range cs {
				if rg.below[c][j] {
					below = true
					break
				}
			}
			if below {
				s2 = append(s2, j)
			} else {
				s1 = append(s1, j)
			}
		}
		// Validity: S1 and S2 non-empty and disjoint by construction; also
		// require that no S2 point reaches an S1 point (true independence).
		if len(s1) == 0 || len(s2) == 0 {
			continue
		}
		indep := true
		for _, a := range s2 {
			for _, b := range s1 {
				if rg.below[a][b] {
					indep = false
					break
				}
			}
			if !indep {
				break
			}
		}
		if !indep {
			continue
		}
		out = append(out, CutSet{Points: cs, S1: s1, S2: s2, Score: cutScore(len(cs), len(s1), len(s2), n)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Score < out[j].Score })
	return out
}

func overlaps(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// cutScore implements Eq. (5): (2^|cs|-1)/2^|cs| * 2^|M'| + 1/2^|cs| *
// (2^|S1| + 2^|S2|), balancing cut set size against partitioning quality.
func cutScore(cs, s1, s2, m int) float64 {
	p2 := func(k int) float64 { return float64(int64(1) << uint(min(k, 62))) }
	return (p2(cs)-1)/p2(cs)*p2(m) + 1/p2(cs)*(p2(s1)+p2(s2))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
