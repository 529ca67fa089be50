package codegen

import (
	"math"
	"math/big"
)

// Enumerator implements MPSkipEnum (Algorithm 2): it linearizes the
// exponential search space over a partition's interesting points from
// negative to positive assignments (fuse-all first), costs plans, and skips
// areas via cost-based and structural pruning.
type Enumerator struct {
	cfg    *Config
	memo   *Memo
	part   *Partition
	coster *Coster

	cur   []bool
	bestQ []bool
	bestC float64

	// InvertOrder flips the search-space linearization to positive-to-
	// negative assignments (an ablation of the paper's claim that the
	// fuse-all-first layout yields a tight initial upper bound).
	InvertOrder bool

	// Evaluated counts fully costed plans; Hypothetical is the unpruned
	// search space size 2^|M'| (reported for Fig. 12).
	Evaluated    int64
	Hypothetical *big.Int
}

// NewEnumerator prepares enumeration for one partition.
func NewEnumerator(cfg *Config, m *Memo, p *Partition) *Enumerator {
	return &Enumerator{
		cfg:          cfg,
		memo:         m,
		part:         p,
		Hypothetical: new(big.Int).Lsh(big.NewInt(1), uint(len(p.Points))),
	}
}

// Best searches for the cost-optimal assignment q* of the partition's
// interesting points (true = materialize the dependency).
func (e *Enumerator) Best() map[Edge]bool {
	n := len(e.part.Points)
	if n == 0 {
		return map[Edge]bool{}
	}
	e.coster = NewCoster(e.cfg, e.memo, e.part)
	e.cur = make([]bool, n)
	e.bestQ = make([]bool, n)
	e.bestC = math.Inf(1)

	if n > e.cfg.MaxPointsExact {
		// Oversized partition: the exhaustive scan is out of reach. Descend
		// from each heuristic's assignment, fuse-all and then fuse-no-
		// redundancy, so that what is returned is never dearer than either.
		for _, fnr := range []bool{false, true} {
			for i, pt := range e.part.Points {
				e.cur[i] = fnr && e.memo.Hop(pt.To).NumConsumers() > 1
			}
			e.descend()
		}
		return e.assignment(e.bestQ)
	}

	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	var cut *CutSet
	if e.cfg.EnableStructPrune {
		if cuts := FindCutSets(e.memo, e.part); len(cuts) > 0 {
			cut = &cuts[0]
		}
	}
	if cut == nil {
		e.linearScan(all)
		return e.assignment(e.bestQ)
	}
	// Structural pruning: enumerate the cut set first; when all cut points
	// are materialized, the subproblems S1 and S2 become independent and
	// are solved separately (2^|S1| + 2^|S2| instead of 2^(|S1|+|S2|)).
	cs := cut.Points
	rest := append(append([]int(nil), cut.S1...), cut.S2...)
	totalCS := int64(1) << len(cs)
	for a := int64(1); a < totalCS; a++ {
		for i, idx := range cs {
			e.cur[idx] = (a-1)>>(len(cs)-1-i)&1 == 1
		}
		e.linearScan(rest)
	}
	for _, idx := range cs {
		e.cur[idx] = true
	}
	for _, idx := range rest {
		e.cur[idx] = false
	}
	// The two scans look for the best plan under this cut assignment, not
	// for one that beats the plans of the others: S1 is fixed at its best
	// with S2 fused, which a bound or budget taken from another cut
	// assignment would hide.
	sofarC, sofarQ := e.bestC, append([]bool(nil), e.bestQ...)
	e.bestC = math.Inf(1)
	e.linearScan(cut.S1)
	for _, idx := range cut.S1 {
		e.cur[idx] = e.bestQ[idx]
	}
	e.linearScan(cut.S2)
	if sofarC <= e.bestC {
		e.bestC, e.bestQ = sofarC, sofarQ
	}
	return e.assignment(e.bestQ)
}

// linearScan enumerates all assignments of the given point indexes (other
// positions of e.cur stay fixed), costing each plan and skipping subspaces
// whose lower bound exceeds the best cost (Algorithm 2 lines 11-15).
func (e *Enumerator) linearScan(idxs []int) {
	n := len(idxs)
	if n == 0 {
		e.eval(e.bestC)
		return
	}
	total := int64(1) << n
	for j := int64(1); j <= total; j++ {
		// createAssignment: linearized negative-to-positive so that the
		// fuse-all plan is evaluated first, yielding a tight upper bound.
		bits := j - 1
		if e.InvertOrder {
			bits = total - j
		}
		for i := 0; i < n; i++ {
			e.cur[idxs[i]] = bits>>(n-1-i)&1 == 1
		}
		if e.cfg.EnableCostPrune {
			if e.coster.LowerBound(e.cur) >= e.bestC {
				if e.InvertOrder {
					// The skip-ahead arithmetic depends on the canonical
					// layout; the inverted ablation only prunes per plan.
					continue
				}
				// Any other plan in this subtree only adds materialization
				// costs: skip 2^(n-x-1)-1 plans.
				x := -1
				for i := n - 1; i >= 0; i-- {
					if e.cur[idxs[i]] {
						x = i
						break
					}
				}
				if x >= 0 {
					j += int64(1)<<(n-x-1) - 1
					continue
				}
			}
		}
		e.eval(e.bestC)
	}
}

// descend lowers the cost of e.cur one flipped point at a time, pass after
// pass over the points, until a pass finds no flip that helps.
func (e *Enumerator) descend() {
	local := e.eval(math.Inf(1))
	for improved := true; improved; {
		improved = false
		for i := range e.cur {
			e.cur[i] = !e.cur[i]
			if c := e.eval(local); c < local {
				local, improved = c, true
			} else {
				e.cur[i] = !e.cur[i]
			}
		}
	}
}

// eval costs e.cur (+Inf once the cost passes budget) and keeps it if it is
// the cheapest plan so far.
func (e *Enumerator) eval(budget float64) float64 {
	e.Evaluated++
	cost := e.coster.cost(e.cur, budget)
	if cost < e.bestC {
		e.bestC = cost
		copy(e.bestQ, e.cur)
	}
	return cost
}

func (e *Enumerator) assignment(q []bool) map[Edge]bool {
	m := make(map[Edge]bool, len(q))
	for i, pt := range e.part.Points {
		if q[i] {
			m[pt] = true
		}
	}
	return m
}

// BestCost returns the cost of the best plan found (Inf before Best ran).
func (e *Enumerator) BestCost() float64 { return e.bestC }
