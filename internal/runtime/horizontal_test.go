package runtime

import (
	"math"
	"testing"

	"sysml/internal/cplan"
	"sysml/internal/matrix"
	"sysml/internal/par"
)

// hfuseGroupPlan is the flagship sibling group — colSums(X), sum(X^2),
// X*3+1 — merged into one Horizontal plan.
func hfuseGroupPlan() *cplan.Plan {
	roots := []*cplan.CNode{
		cplan.Main(0),
		cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Main(0)),
		cplan.Binary(matrix.BinAdd,
			cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Lit(3)), cplan.Lit(1)),
	}
	return &cplan.Plan{
		Type:       cplan.TemplateHorizontal,
		Roots:      roots,
		AggOps:     []matrix.AggOp{matrix.AggSum, matrix.AggSum, matrix.AggSum},
		HKinds:     []cplan.CellType{cplan.CellColAgg, cplan.CellFullAgg, cplan.CellNoAgg},
		SparseSafe: cplan.ProbeSparseSafe(roots...),
	}
}

// hfuseGroupWant computes the group's per-member reference results with the
// plain matrix kernels.
func hfuseGroupWant(x *matrix.Matrix) []*matrix.Matrix {
	return []*matrix.Matrix{
		matrix.Agg(matrix.AggSum, matrix.DirCol, x),
		matrix.NewScalar(matrix.Agg(matrix.AggSumSq, matrix.DirAll, x).Scalar()),
		matrix.ScalarRight(matrix.BinAdd, matrix.ScalarRight(matrix.BinMul, x, 3), 1),
	}
}

func checkHorizontalOuts(t *testing.T, tag string, got, want []*matrix.Matrix) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d outputs, want %d", tag, len(got), len(want))
	}
	for q := range want {
		gd, wd := got[q].ToDense().Dense(), want[q].ToDense().Dense()
		if len(gd) != len(wd) {
			t.Fatalf("%s root %d: shape mismatch", tag, q)
		}
		for i := range wd {
			tol := 1e-9*math.Abs(wd[i]) + 1e-12
			if math.Abs(gd[i]-wd[i]) > tol {
				t.Fatalf("%s root %d cell %d: got %v want %v", tag, q, i, gd[i], wd[i])
			}
		}
	}
}

// TestHorizontalMatchesPerMember sweeps shapes x sparsities x worker
// counts and checks the merged single-pass execution against per-member
// kernel results within 1e-9.
func TestHorizontalMatchesPerMember(t *testing.T) {
	p := hfuseGroupPlan()
	op := cplan.Compile(p, "TMPH")
	// At 3000 columns the map root steps column ranges of one row while its
	// siblings take whole rows.
	shapes := [][2]int{{1, 1}, {1, 64}, {64, 1}, {17, 31}, {128, 200}, {3, 1000}, {6, 3000}}
	for _, sh := range shapes {
		for _, sp := range []float64{1, 0.3, 0.01} {
			x := matrix.Rand(sh[0], sh[1], sp, -2, 2, int64(sh[0]*1000+sh[1]))
			want := hfuseGroupWant(x)
			for _, workers := range []int{1, 2, 7} {
				ec := matrix.Ctx{Par: par.NewPool(workers)}
				got, _ := execRoots(ec, op, x, nil, nil)
				checkHorizontalOuts(t, "dense", got, want)
			}
		}
	}
}

// TestHorizontalSparseIteration checks the sparse-safe non-zero iteration
// path (all roots sparse-safe) against per-member kernels, including the
// same-pattern CSR NoAgg output.
func TestHorizontalSparseIteration(t *testing.T) {
	roots := []*cplan.CNode{
		cplan.Main(0),
		cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Main(0)),
		cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Lit(2)),
	}
	p := &cplan.Plan{
		Type:       cplan.TemplateHorizontal,
		Roots:      roots,
		AggOps:     []matrix.AggOp{matrix.AggSum, matrix.AggSum, matrix.AggSum},
		HKinds:     []cplan.CellType{cplan.CellColAgg, cplan.CellFullAgg, cplan.CellNoAgg},
		SparseSafe: cplan.ProbeSparseSafe(roots...),
	}
	if !p.SparseSafe {
		t.Fatal("group must probe sparse-safe")
	}
	op := cplan.Compile(p, "TMPHS")
	x := matrix.Rand(80, 60, 0.1, -2, 2, 9)
	if !x.IsSparse() {
		t.Fatal("test input must be sparse")
	}
	got := ExecHorizontal(op, x, nil)
	if !got[2].IsSparse() {
		t.Fatal("sparse-safe NoAgg output must stay sparse")
	}
	want := []*matrix.Matrix{
		matrix.Agg(matrix.AggSum, matrix.DirCol, x),
		matrix.NewScalar(matrix.Agg(matrix.AggSumSq, matrix.DirAll, x).Scalar()),
		matrix.ScalarRight(matrix.BinMul, x, 2),
	}
	checkHorizontalOuts(t, "sparse", got, want)
}

// TestHorizontalRowAgg: rowSums(X*2+1) alongside sum(X^2) and a map.
func TestHorizontalRowAgg(t *testing.T) {
	roots := []*cplan.CNode{
		cplan.Binary(matrix.BinAdd,
			cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Lit(2)), cplan.Lit(1)),
		cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Main(0)),
		cplan.Binary(matrix.BinSub, cplan.Main(0), cplan.Lit(4)),
	}
	p := &cplan.Plan{
		Type:   cplan.TemplateHorizontal,
		Roots:  roots,
		AggOps: []matrix.AggOp{matrix.AggSum, matrix.AggSum, matrix.AggSum},
		HKinds: []cplan.CellType{cplan.CellRowAgg, cplan.CellFullAgg, cplan.CellNoAgg},
	}
	op := cplan.Compile(p, "TMPR")
	x := matrix.Rand(53, 29, 1, -3, 3, 11)
	got := ExecHorizontal(op, x, nil)
	want := []*matrix.Matrix{
		matrix.Agg(matrix.AggSum, matrix.DirRow,
			matrix.ScalarRight(matrix.BinAdd, matrix.ScalarRight(matrix.BinMul, x, 2), 1)),
		matrix.NewScalar(matrix.Agg(matrix.AggSumSq, matrix.DirAll, x).Scalar()),
		matrix.ScalarRight(matrix.BinSub, x, 4),
	}
	checkHorizontalOuts(t, "rowagg", got, want)
}

// TestMAggMinMaxSeeImplicitZeros: min and max over a sparse-safe body must
// visit the implicit zeros of a sparse main, in a MAgg plan as in a Cell one.
func TestMAggMinMaxSeeImplicitZeros(t *testing.T) {
	x2 := cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Lit(2))
	p := &cplan.Plan{Type: cplan.TemplateMAgg, Roots: []*cplan.CNode{x2, x2},
		AggOps: []matrix.AggOp{matrix.AggMin, matrix.AggMax}, SparseSafe: true}
	x := matrix.Rand(60, 40, 0.05, 1, 2, 3).ToSparse()
	got := ExecMAgg(cplan.Compile(p, "TMPZ"), x, nil).Dense()
	if want := 2 * matrix.Agg(matrix.AggMax, matrix.DirAll, x).Scalar(); got[0] != 0 || got[1] != want {
		t.Fatalf("min, max of 2*X over positive sparse X = %v, want [0 %v]", got, want)
	}
}
