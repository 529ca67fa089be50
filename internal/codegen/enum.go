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

	static float64
	cur    []bool
	bestQ  []bool
	bestC  float64

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
		coster:       NewCoster(cfg, m, p),
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
	e.cur = make([]bool, n)
	e.bestQ = make([]bool, n)
	e.bestC = math.Inf(1)
	e.static = e.coster.StaticCost()

	if n > e.cfg.MaxPointsExact {
		// Oversized partition: the exhaustive scan is out of reach. Open
		// with fuse-all and make one pass over the points, materializing
		// each one that lowers the plan cost (n+1 plans costed).
		e.evalCurrent()
		for i := range e.cur {
			before := e.bestC
			e.cur[i] = true
			if e.evalCurrent(); e.bestC >= before {
				e.cur[i] = false
			}
		}
		return e.assignment(e.bestQ)
	}

	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	var cut *CutSet
	if e.cfg.EnableStructPrune {
		rg := BuildReachGraph(e.memo, e.part)
		if cuts := FindCutSets(e.memo, e.part, rg); len(cuts) > 0 {
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
	for a := int64(1); a <= totalCS; a++ {
		for i, idx := range cs {
			e.cur[idx] = (a-1)>>(len(cs)-1-i)&1 == 1
		}
		allTrue := a == totalCS
		if allTrue {
			for _, idx := range rest {
				e.cur[idx] = false
			}
			e.linearScan(cut.S1)
			// Fix S1 at the best found so far, then optimize S2.
			for _, idx := range cut.S1 {
				e.cur[idx] = e.bestQ[idx]
			}
			e.linearScan(cut.S2)
		} else {
			e.linearScan(rest)
		}
	}
	return e.assignment(e.bestQ)
}

// linearScan enumerates all assignments of the given point indexes (other
// positions of e.cur stay fixed), costing each plan and skipping subspaces
// whose lower bound exceeds the best cost (Algorithm 2 lines 11-15).
func (e *Enumerator) linearScan(idxs []int) {
	n := len(idxs)
	if n == 0 {
		e.evalCurrent()
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
			lb := e.static + e.coster.MPCost(e.part.Points, e.cur)
			if lb >= e.bestC {
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
		e.evalCurrent()
	}
}

func (e *Enumerator) evalCurrent() {
	e.Evaluated++
	cost := e.coster.PlanCost(e.assignment(e.cur), e.bestC)
	if cost < e.bestC {
		e.bestC = cost
		copy(e.bestQ, e.cur)
	}
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
