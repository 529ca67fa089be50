package codegen_test

import (
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/cplan"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/rewrite"
)

// siblingDAG builds the flagship sibling group over one shared input:
// colSums(X), sum(X^2), X*3+1.
func siblingDAG(rows, cols int64) *hop.DAG {
	d := hop.NewDAG()
	x := d.Read("X", rows, cols, -1)
	d.Output("C", d.ColSums(x))
	d.Output("s", d.Sum(d.Binary(matrix.BinMul, x, x)))
	d.Output("Y", d.Binary(matrix.BinAdd,
		d.Binary(matrix.BinMul, x, d.Lit(3)), d.Lit(1)))
	return d
}

func optimizeSiblings(rows, cols int64, disable bool) []*hop.Hop {
	cfg := codegen.DefaultConfig()
	cfg.DisableHFuse = disable
	d, _ := rewrite.Apply(siblingDAG(rows, cols))
	d = codegen.Optimize(d, &cfg, codegen.NewPlanCacheSized(true, 0), codegen.NewStats())
	var spoofs []*hop.Hop
	for _, h := range hop.TopoOrder(d.Roots()) {
		if h.Kind == hop.OpSpoof && h.SpoofType == "Horizontal" {
			spoofs = append(spoofs, h)
		}
	}
	return spoofs
}

// TestHorizontalConstruction: the sibling group merges into exactly one
// Horizontal operator at scale with one program per root, each of which can
// bind its leaf registers as views (no broadcast side).
func TestHorizontalConstruction(t *testing.T) {
	spoofs := optimizeSiblings(4096, 2048, false)
	if len(spoofs) != 1 {
		t.Fatalf("expected one Horizontal operator, got %d", len(spoofs))
	}
	op := spoofs[0].Spoof.(*cplan.Operator)
	if len(op.Progs) != 3 {
		t.Fatalf("merged operator has %d programs, want one per root (3)", len(op.Progs))
	}
	for q, r := range op.Progs {
		for _, in := range r.Instrs {
			if in.Op == cplan.RLoadSideRow || in.Op == cplan.RLoadSideVal && !in.RowZero {
				t.Fatalf("root %d reads a matrix side (%+v): dense X must bind as views", q, in)
			}
		}
	}
}

// TestHorizontalAdversarialDeclines: the cost gate must keep the vertical
// plan on a tiny shared input, and DisableHFuse must suppress merging at
// any scale.
func TestHorizontalAdversarialDeclines(t *testing.T) {
	if n := len(optimizeSiblings(64, 64, false)); n != 0 {
		t.Fatalf("tiny input must decline horizontal fusion, got %d operators", n)
	}
	if n := len(optimizeSiblings(4096, 2048, true)); n != 0 {
		t.Fatalf("DisableHFuse must suppress merging, got %d operators", n)
	}
}

// TestHorizontalDeclinesMeans: the cell skeleton folds sums, minima and
// maxima; a mean aggregate must stay out of a sibling group.
func TestHorizontalDeclinesMeans(t *testing.T) {
	d := hop.NewDAG()
	x := d.Read("X", 4096, 2048, -1)
	d.Output("C", d.Agg(matrix.AggMean, matrix.DirCol, x))
	d.Output("Y", d.Binary(matrix.BinAdd, d.Binary(matrix.BinMul, x, d.Lit(3)), d.Lit(1)))
	d.Output("s", d.Sum(d.Binary(matrix.BinMul, x, x)))
	cfg := codegen.DefaultConfig()
	d, _ = rewrite.Apply(d)
	d = codegen.Optimize(d, &cfg, codegen.NewPlanCacheSized(true, 0), codegen.NewStats())
	for _, h := range hop.TopoOrder(d.Roots()) {
		if h.Kind == hop.OpAggUnary && h.AggOp == matrix.AggMean {
			return // colMeans survived as a basic operator
		}
	}
	t.Fatal("colMeans was fused into a group that folds it as a sum")
}
