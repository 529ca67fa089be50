package codegen

import (
	"fmt"
	"math"
	"math/big"
	"sort"
	"strings"
	"time"
)

// PlanReport is the structured EXPLAIN record of one Optimize call: the
// HOP DAG before and after fusion, the per-partition search-space summary
// (memo-table interesting points, evaluated vs. hypothetical plans,
// estimated cost of the chosen plan), and the fused operators that were
// constructed. It is filled by OptimizeReport and rendered by String.
type PlanReport struct {
	Mode       string
	HopsBefore string
	HopsAfter  string
	Partitions []PartitionReport
	Operators  []OperatorReport
	// Horizontal records the sibling-group decisions of the horizontal
	// fusion pass: merged groups, and declined groups with the cost-gate
	// reason.
	Horizontal []HorizontalGroup
	// Compressed lists the reads of this block the interpreter's compression
	// pass considered, each with what was decided about it and why (filled
	// by the interpreter after the plan is chosen: the decision for a value
	// the script produced depends on the plan's operators). Non-empty
	// Compressed also switches the operator lines to include per-operator
	// compressed-eligibility.
	Compressed []CompressedInput
	// Plan-cache activity attributable to this Optimize call (deltas of the
	// session cache's lifetime counters).
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	// CodegenTime is the wall time of the Optimize call that produced this
	// report. Excluded from String so explain output stays deterministic
	// for golden tests.
	CodegenTime time.Duration
}

// PartitionReport summarizes plan selection over one plan partition.
type PartitionReport struct {
	Nodes int
	// Points renders the memo table's interesting points, one
	// "consumer->input (op->op)" string per materialization decision.
	Points []string
	// Materialized counts the points the chosen plan materializes.
	Materialized int
	// PlansEvaluated counts fully costed plans; Hypothetical is the
	// unpruned search-space size 2^|points|.
	PlansEvaluated int64
	Hypothetical   *big.Int
	// EstCost is the analytical cost (seconds) of the chosen plan;
	// NaN when the partition was not costed (heuristic modes skip it).
	EstCost float64
}

// OperatorReport describes one constructed fused operator.
type OperatorReport struct {
	Template   string
	ClassName  string
	NumInputs  int
	Rows, Cols int64
	CacheHit   bool
	// CompressedOK / CompressedWhy record the compressed-execution
	// eligibility probe: whether the operator's body can run per distinct
	// dictionary tuple over a compressed main input, and the fallback
	// reason when it cannot. Rendered in the COMPRESSED section.
	CompressedOK  bool
	CompressedWhy string
}

// CompressedInput is one read the compression pass considered: Verdict says
// what was decided and why, e.g. "compressed 4.35× (DDC×12 RLE×3, 12345
// bytes)", "estimated ratio 1.86 < 3.00", "no compressed consumer", "second
// read pending", "benefit 0.4 ms < cost 11 ms (...)".
type CompressedInput struct {
	Name       string
	Rows, Cols int64
	Verdict    string
}

// String renders the read as its line of the COMPRESSED section.
func (ci CompressedInput) String() string {
	return fmt.Sprintf("  %s %dx%d: %s\n", ci.Name, ci.Rows, ci.Cols, ci.Verdict)
}

// HorizontalGroup is one sibling-group decision of the horizontal fusion
// pass (merged or declined), rendered in the EXPLAIN HORIZONTAL section.
type HorizontalGroup struct {
	Main    string   // dominant shared input
	Members []string // the sibling operators considered
	Merged  bool
	Reason  string // cost-gate decline reason (empty when merged)
}

// FusedOperators counts constructed operators by template type, rendered
// deterministically as e.g. "2 (Cell, Row)".
func (r *PlanReport) FusedOperators() string {
	if len(r.Operators) == 0 {
		return "0"
	}
	byType := map[string]int{}
	for _, op := range r.Operators {
		byType[op.Template]++
	}
	types := make([]string, 0, len(byType))
	for t := range byType {
		types = append(types, t)
	}
	sort.Strings(types)
	return fmt.Sprintf("%d (%s)", len(r.Operators), strings.Join(types, ", "))
}

// String renders the report in the EXPLAIN layout consumed by
// cmd/dmlrun -explain and Session.Explain. All lines are deterministic for
// a fixed script and configuration (no wall-clock values).
func (r *PlanReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode: %s\n", r.Mode)
	fmt.Fprintf(&b, "hops before fusion:\n%s", indent(r.HopsBefore))
	for i, p := range r.Partitions {
		fmt.Fprintf(&b, "partition %d: %d nodes, %d interesting points\n",
			i, p.Nodes, len(p.Points))
		for _, pt := range p.Points {
			fmt.Fprintf(&b, "  point %s\n", pt)
		}
		if p.Hypothetical != nil && p.Hypothetical.Sign() > 0 {
			fmt.Fprintf(&b, "  plans: evaluated %d of %s hypothetical, materialized %d points\n",
				p.PlansEvaluated, p.Hypothetical.String(), p.Materialized)
		}
		if !math.IsNaN(p.EstCost) {
			fmt.Fprintf(&b, "  estimated cost: %.3g\n", p.EstCost)
		}
	}
	if len(r.Horizontal) > 0 {
		fmt.Fprintf(&b, "HORIZONTAL: %d sibling groups\n", len(r.Horizontal))
		for _, g := range r.Horizontal {
			if g.Merged {
				fmt.Fprintf(&b, "  merged [%s] over %s\n", strings.Join(g.Members, "; "), g.Main)
			} else {
				fmt.Fprintf(&b, "  declined [%s] over %s: %s\n",
					strings.Join(g.Members, "; "), g.Main, g.Reason)
			}
		}
	}
	if len(r.Compressed) > 0 {
		fmt.Fprintf(&b, "COMPRESSED: %d inputs considered\n", len(r.Compressed))
		for _, ci := range r.Compressed {
			b.WriteString(ci.String())
		}
	}
	fmt.Fprintf(&b, "fused operators: %s\n", r.FusedOperators())
	for _, op := range r.Operators {
		hit := ""
		if op.CacheHit {
			hit = " [cache hit]"
		}
		fmt.Fprintf(&b, "  %s %s: %d inputs, %dx%d output%s",
			op.Template, op.ClassName, op.NumInputs, op.Rows, op.Cols, hit)
		if len(r.Compressed) > 0 {
			if op.CompressedOK {
				b.WriteString(" compressed: eligible")
			} else {
				fmt.Fprintf(&b, " compressed: fallback (%s)", op.CompressedWhy)
			}
		}
		b.WriteString("\n")
	}
	if r.CacheHits+r.CacheMisses+r.CacheEvictions > 0 {
		fmt.Fprintf(&b, "plan cache: %d hits, %d misses, %d evictions\n",
			r.CacheHits, r.CacheMisses, r.CacheEvictions)
	}
	if r.HopsAfter != r.HopsBefore {
		fmt.Fprintf(&b, "hops after fusion:\n%s", indent(r.HopsAfter))
	}
	return b.String()
}

func indent(s string) string {
	if s == "" {
		return ""
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// pointLabel renders one interesting point with operator context.
func pointLabel(m *Memo, e Edge) string {
	from, to := m.Hop(e.From), m.Hop(e.To)
	if from == nil || to == nil {
		return fmt.Sprintf("%d->%d", e.From, e.To)
	}
	return fmt.Sprintf("%d->%d (%s -> %s)", e.From, e.To, from.String(), to.String())
}
