package codegen_test

import (
	"math"
	"slices"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/obs"
	"sysml/internal/rewrite"
)

// optimized runs Gen over a DAG and returns it with its fused operators.
func optimized(d *hop.DAG) (*hop.DAG, []*hop.Hop) {
	d, _ = rewrite.Apply(d)
	cfg := codegen.DefaultConfig()
	d = codegen.Optimize(d, &cfg, codegen.NewPlanCacheSized(true, 0), codegen.NewStats())
	var spoofs []*hop.Hop
	for _, h := range hop.TopoOrder(d.Roots()) {
		if h.Kind == hop.OpSpoof {
			spoofs = append(spoofs, h)
		}
	}
	return d, spoofs
}

// TestMLogregOuterBlockMaterializesTheProduct is the block docs/COST_MODEL.md
// recorded as the cost-based pruning's loss: over a Mnist-like X the parent
// costed 3 of 256 plans and returned fuse-all, three Row operators that each
// walk X and compute X %*% B again. The search returns the scan's optimum,
// which materializes the 4000x2 product.
func TestMLogregOuterBlockMaterializesTheProduct(t *testing.T) {
	cfg := codegen.DefaultConfig()
	d, _ := rewrite.Apply(mlogregOuterDAG(4000, 784, 784000))
	memo := codegen.Explore(d.Roots(), &cfg)
	for _, p := range codegen.BuildPartitions(memo, d.Roots()) {
		if len(p.Points) != 8 {
			continue
		}
		en := codegen.NewEnumerator(&cfg, memo, p)
		best := en.Best()
		exhaustive := cfg
		exhaustive.EnableCostPrune, exhaustive.EnableStructPrune = false, false
		scan := codegen.NewEnumerator(&exhaustive, memo, p)
		scan.Best()
		if math.Abs(en.BestCost()-scan.BestCost()) > 1e-9*scan.BestCost() {
			t.Errorf("search returns %.6g after %d plans, the scan of %d finds %.6g", en.BestCost(), en.Evaluated, scan.Evaluated, scan.BestCost())
		}
		fuseAll := codegen.NewCoster(&cfg, memo, p).PlanCost(nil, math.Inf(1))
		if len(best) == 0 || en.BestCost() >= fuseAll {
			t.Errorf("search materializes %d points at %.6g; fuse-all costs %.6g", len(best), en.BestCost(), fuseAll)
		}
		return
	}
	t.Fatal("no partition of 8 interesting points")
}

// TestSharedProductIsReadNotRecomputed: X %*% w feeds a written vector and,
// through it, t(X) %*% (...) (L2SVM's update). A Row operator that computed
// the product again would walk every row of X twice; the vector is written
// anyway (the operator that writes it may fuse the product), so the Row
// operator of t(X) %*% (...) reads the vector, and X %*% w is computed once:
// one operator of the plan reads w.
func TestSharedProductIsReadNotRecomputed(t *testing.T) {
	d := hop.NewDAG()
	x, w, y := d.Read("X", 25000, 29, -1), d.Read("w", 29, 1, -1), d.Read("Y", 25000, 1, -1)
	out := d.Binary(matrix.BinSub, d.Lit(1), d.Binary(matrix.BinMul, y, d.MatMult(x, w)))
	d.Output("out", out)
	d.Output("g", d.MatMult(d.Transpose(x), d.Binary(matrix.BinMul, out, y)))
	d, _ = optimized(d)
	var readers []*hop.Hop
	for _, h := range hop.TopoOrder(d.Roots()) {
		if slices.ContainsFunc(h.Inputs, func(in *hop.Hop) bool { return in.Name == "w" }) {
			readers = append(readers, h)
		}
	}
	if g := d.Outputs["g"]; g.SpoofType != "Row" || slices.Contains(readers, g) || !slices.Contains(g.Inputs, d.Outputs["out"]) {
		t.Errorf("t(X) %%*%% (...) is no Row operator over the written vector:\n%s", hop.Explain(d.Roots()))
	}
	if len(readers) != 1 {
		t.Errorf("%d operators read w: X %%*%% w is computed more than once\n%s", len(readers), hop.Explain(d.Roots()))
	}
}

// TestTransposedProductOfAComputedMatrix: t(M) %*% M with M = A %*% V. No Row
// plan expresses a transpose of what the operator computes (it iterates over
// the rows of an input), so the memo must not offer one: the search priced
// such an entry, construction declined it, and the block ran on basic
// operators where fuse-no-redundancy had a Row operator over M.
func TestTransposedProductOfAComputedMatrix(t *testing.T) {
	d := hop.NewDAG()
	m := d.MatMult(d.Read("A", 2000, 7, -1), d.Read("V", 7, 7, -1))
	d.Output("s", d.Sum(d.MatMult(d.Transpose(m), m)))
	_, spoofs := optimized(d)
	for _, s := range spoofs {
		if s.SpoofType == "Row" && len(s.Inputs) == 1 && s.Inputs[0].Kind == hop.OpMatMult {
			return
		}
	}
	t.Errorf("no Row operator over the materialized product; fused operators: %v", spoofs)
}

// TestDistributedOperatorIsPricedOnItsOwnInputs: X * log(U %*% t(V) + 1e-15)
// over a sparse X runs distributed under a 1 MiB budget. The root hop's
// largest input is the 32 MB dense log(...), which the Outer operator never
// builds; its own inputs are X (656 KB as CSR), U and V. Taking the largest
// input from the root hop left nothing to broadcast, and the search priced
// the operator at a quarter of what EXPLAIN predicts for it.
func TestDistributedOperatorIsPricedOnItsOwnInputs(t *testing.T) {
	d := hop.NewDAG()
	uv := d.MatMult(d.Read("U", 2000, 10, -1), d.Transpose(d.Read("V", 2000, 10, -1)))
	d.Output("P", d.Binary(matrix.BinMul, d.Read("X", 2000, 2000, 40000),
		d.Unary(matrix.UnLog, d.Binary(matrix.BinAdd, uv, d.Lit(1e-15)))))
	d, _ = rewrite.Apply(d)
	cfg := codegen.DefaultConfig()
	cfg.Exec.MemBudgetBytes = 1 << 20
	rep := &codegen.PlanReport{}
	d = codegen.OptimizeTraced(d, &cfg, codegen.NewPlanCacheSized(true, 0), codegen.NewStats(), rep, obs.Span{})
	op := d.Outputs["P"]
	if op.Kind != hop.OpSpoof || op.SpoofType != "Outer" || op.ExecType != hop.ExecDist {
		t.Fatalf("want one distributed Outer operator:\n%s", hop.Explain(d.Roots()))
	}
	var searched codegen.PartitionReport
	for _, p := range rep.Partitions {
		if p.Nodes > searched.Nodes {
			searched = p
		}
	}
	if math.Abs(searched.EstCost-op.PredSec) > 0.01*op.PredSec {
		t.Errorf("the search prices the operator's partition at %.4g s, EXPLAIN predicts %.4g s", searched.EstCost, op.PredSec)
	}
}

// TestOuterCandidateIsPricedAsBuilt: t((U %*% t(V)) * X) %*% W with W not U.
// The Outer template fuses the left product over any narrow W, but an Outer
// operator computes t(O) %*% U only over its product's left factor, so
// construction cannot build one here (outerShape). Priced as an Outer
// operator anyway, the search chose a plan at less than half of what the
// operators construction built in its place predict: the plan Gen builds
// must be the one the search priced.
func TestOuterCandidateIsPricedAsBuilt(t *testing.T) {
	d := hop.NewDAG()
	u, v, w := d.Read("U", 2000, 10, -1), d.Read("V", 2000, 10, -1), d.Read("W", 2000, 10, -1)
	o := d.Binary(matrix.BinMul, d.MatMult(u, d.Transpose(v)), d.Read("X", 2000, 2000, 40000))
	d.Output("R", d.MatMult(d.Transpose(o), w))
	d, _ = rewrite.Apply(d)
	cfg := codegen.DefaultConfig()
	rep := &codegen.PlanReport{}
	d = codegen.OptimizeTraced(d, &cfg, codegen.NewPlanCacheSized(true, 0), codegen.NewStats(), rep, obs.Span{})
	var searched codegen.PartitionReport
	for _, p := range rep.Partitions {
		if p.Nodes > searched.Nodes {
			searched = p
		}
	}
	built := 0.0
	for _, h := range hop.TopoOrder(d.Roots()) {
		built += h.PredSec
	}
	if math.Abs(searched.EstCost-built) > 0.01*built {
		t.Errorf("the search prices the plan at %.4g s, the operators Gen built predict %.4g s:\n%s", searched.EstCost, built, hop.Explain(d.Roots()))
	}
}
