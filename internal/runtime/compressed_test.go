package runtime

import (
	"fmt"
	"math"
	"testing"

	"sysml/internal/compress"
	"sysml/internal/cplan"
	"sysml/internal/data"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/par"
)

// claMatrix generates a CLA-friendly matrix: card distinct values per
// column at the given sparsity (zeros count toward the distinct set).
func claMatrix(rows, cols, card int, sparsity float64, seed int64) *matrix.Matrix {
	m := matrix.Rand(rows, cols, sparsity, 0, float64(card), seed).ToDense()
	d := m.Dense()
	for i := range d {
		d[i] = math.Floor(d[i])
	}
	return m
}

func attached(m *matrix.Matrix) *compress.CMatrix {
	cm := compress.Compress(m, compress.DefaultOptions())
	compress.Attach(m, cm)
	return cm
}

// TestCompressedCellMatchesDense sweeps the Cell template's aggregation
// variants over shapes × sparsities × cardinalities × worker counts and
// requires the compressed skeleton to agree with the dense one within 1e-9.
func TestCompressedCellMatchesDense(t *testing.T) {
	// Body: X*s + 2 with a scalar side (position independent).
	root := cplan.Binary(matrix.BinAdd,
		cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Side(0, cplan.AccessScalar, 0)),
		cplan.Lit(2))
	variants := []struct {
		cell cplan.CellType
		aop  matrix.AggOp
	}{
		{cplan.CellNoAgg, matrix.AggSum},
		{cplan.CellFullAgg, matrix.AggSum},
		{cplan.CellFullAgg, matrix.AggSumSq},
		{cplan.CellFullAgg, matrix.AggMin},
		{cplan.CellFullAgg, matrix.AggMax},
		{cplan.CellColAgg, matrix.AggSum},
	}
	shapes := [][2]int{{64, 3}, {500, 7}, {1000, 2}}
	seed := int64(100)
	for _, v := range variants {
		p := &cplan.Plan{Type: cplan.TemplateCell, Cell: v.cell, AggOp: v.aop, Root: root, NumSides: 1}
		if ok, why := cplan.CompressedEligible(p); !ok {
			t.Fatalf("cell %v/%v should be eligible: %s", v.cell, v.aop, why)
		}
		op := cplan.Compile(p, "CC1")
		check := func(tag string, x *matrix.Matrix, workers int) {
			s := matrix.NewScalar(1.5)
			cm := attached(x)
			ec := matrix.Ctx{Par: par.NewPool(workers)}
			got, ok := execCompressed(ec, op, cm, []*matrix.Matrix{s}, nil)
			if !ok {
				t.Fatalf("cell %v/%v: compressed skeleton declined", v.cell, v.aop)
			}
			want := ExecCellwise(op, x, []*matrix.Matrix{s})
			if !got.EqualsApprox(want, 1e-9) {
				t.Fatalf("cell %v/%v %s w=%d: mismatch", v.cell, v.aop, tag, workers)
			}
			compress.Drop(x)
		}
		for _, sh := range shapes {
			for _, sp := range []float64{1, 0.3} {
				for _, card := range []int{1, 4, 40} {
					for _, workers := range []int{1, 4} {
						seed++
						check(fmt.Sprintf("%dx%d sp=%v card=%d", sh[0], sh[1], sp, card),
							claMatrix(sh[0], sh[1], card, sp, seed), workers)
					}
				}
			}
		}
		// Mixed cardinalities and co-coded column groups, as the CLA gate's data.
		check("airline", data.AirlineLike(2000, 61), 4)
	}
}

// TestCompressedCellEmptyAndConstant pins the edge encodings: an all-zero
// matrix (single zero tuple) and constant columns.
func TestCompressedCellEmptyAndConstant(t *testing.T) {
	root := cplan.Binary(matrix.BinAdd, cplan.Main(0), cplan.Lit(1)) // not sparse safe
	p := &cplan.Plan{Type: cplan.TemplateCell, Cell: cplan.CellNoAgg, Root: root}
	op := cplan.Compile(p, "CC2")
	zero := matrix.NewDense(200, 3)
	constant := matrix.NewDense(200, 3)
	for i := range constant.Dense() {
		constant.Dense()[i] = 4
	}
	for _, m := range []*matrix.Matrix{zero, constant} {
		cm := attached(m)
		got, ok := execCompressed(matrix.Ctx{}, op, cm, nil, nil)
		if !ok {
			t.Fatal("compressed skeleton declined")
		}
		want := ExecCellwise(op, m, nil)
		if !got.EqualsApprox(want, 0) {
			t.Fatal("edge encoding mismatch")
		}
		compress.Drop(m)
	}
}

// TestCompressedMAggMatchesDense: multi-aggregate over co-coded dictionary
// tuples (several roots, mixed aggregation ops).
func TestCompressedMAggMatchesDense(t *testing.T) {
	r1 := cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Main(0))
	r2 := cplan.Binary(matrix.BinAdd, cplan.Main(0), cplan.Lit(1))
	p := &cplan.Plan{Type: cplan.TemplateMAgg,
		Roots:  []*cplan.CNode{r1, r2},
		AggOps: []matrix.AggOp{matrix.AggSum, matrix.AggMax}}
	if ok, why := cplan.CompressedEligible(p); !ok {
		t.Fatalf("magg should be eligible: %s", why)
	}
	op := cplan.Compile(p, "CM1")
	for _, card := range []int{2, 12} {
		x := claMatrix(600, 4, card, 1, int64(200+card))
		cm := attached(x)
		got, ok := execCompressed(matrix.Ctx{}, op, cm, nil, nil)
		if !ok {
			t.Fatal("compressed magg declined")
		}
		want := ExecMAgg(op, x, nil)
		if !got.EqualsApprox(want, 1e-9) {
			t.Fatalf("magg card=%d mismatch: got %v want %v", card, got, want)
		}
		compress.Drop(x)
	}
}

// TestCompressedRowMatchesDense: row-template variants where a whole row is
// one dictionary tuple (single co-coded group).
func TestCompressedRowMatchesDense(t *testing.T) {
	n := 2 // two columns co-code into one group (dict product stays small)
	variants := []struct {
		row  cplan.RowType
		root *cplan.CNode
	}{
		{cplan.RowFullAgg, cplan.Binary(matrix.BinMul, cplan.Agg(matrix.AggSum, cplan.Main(n)), cplan.Lit(3))},
		{cplan.RowRowAgg, cplan.Agg(matrix.AggSum, cplan.Binary(matrix.BinMul, cplan.Main(n), cplan.Main(n)))},
		{cplan.RowColAgg, cplan.Binary(matrix.BinMul, cplan.Main(n), cplan.Lit(2))},
		{cplan.RowNoAgg, cplan.Binary(matrix.BinAdd, cplan.Main(n), cplan.Lit(1))},
	}
	for _, v := range variants {
		p := &cplan.Plan{Type: cplan.TemplateRow, Row: v.row, Root: v.root, MainWidth: n}
		if ok, why := cplan.CompressedEligible(p); !ok {
			t.Fatalf("row %v should be eligible: %s", v.row, why)
		}
		op := cplan.Compile(p, "CR1")
		for _, workers := range []int{1, 3} {
			x := claMatrix(800, n, 3, 1, int64(300+int(v.row)))
			cm := attached(x)
			if len(cm.Groups) != 1 {
				t.Fatalf("row test needs a single co-coded group, got %d", len(cm.Groups))
			}
			ec := matrix.Ctx{Par: par.NewPool(workers)}
			got, ok := execCompressed(ec, op, cm, nil, nil)
			if !ok {
				t.Fatalf("row %v: compressed skeleton declined", v.row)
			}
			want := ExecRowwise(op, x, nil)
			if !got.EqualsApprox(want, 1e-9) {
				t.Fatalf("row %v w=%d mismatch", v.row, workers)
			}
			compress.Drop(x)
		}
	}
}

// TestCompressedIneligibleFallsBack: bodies the probe rejects must not
// dispatch compressed, and the dense path still runs through ExecSpoof.
func TestCompressedIneligibleFallsBack(t *testing.T) {
	// Per-cell side access is position dependent.
	root := cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Side(0, cplan.AccessCell, 0))
	p := &cplan.Plan{Type: cplan.TemplateCell, Cell: cplan.CellFullAgg, AggOp: matrix.AggSum, Root: root, NumSides: 1}
	if ok, _ := cplan.CompressedEligible(p); ok {
		t.Fatal("per-cell side access must be ineligible")
	}
	op := cplan.Compile(p, "CF1")
	x := claMatrix(300, 3, 5, 1, 400)
	y := matrix.Rand(300, 3, 1, -1, 1, 401)
	attached(x)
	defer compress.Drop(x)
	h := &hop.Hop{Kind: hop.OpSpoof, Spoof: op}
	got, bind, err := ExecSpoof(matrix.Ctx{}, h, []*matrix.Matrix{x, y}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bind != BindView {
		t.Fatalf("ineligible body ran under %s, want the dense skeleton's view binding", bind)
	}
	want := matrix.Sum(matrix.Binary(matrix.BinMul, x, y))
	if math.Abs(got.Scalar()-want) > 1e-9*math.Abs(want) {
		t.Fatal("dense fallback produced a wrong result")
	}
}

// TestCompressedDispatchThroughExecSpoof: the executor entry point picks the
// compressed path for an attached eligible input and matches dense.
func TestCompressedDispatchThroughExecSpoof(t *testing.T) {
	root := cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Main(0))
	p := &cplan.Plan{Type: cplan.TemplateCell, Cell: cplan.CellFullAgg,
		AggOp: matrix.AggSum, Root: root, SparseSafe: true}
	op := cplan.Compile(p, "CD1")
	x := claMatrix(500, 4, 6, 1, 500)
	want := matrix.Sum(matrix.Binary(matrix.BinMul, x, x))
	attached(x)
	defer compress.Drop(x)
	h := &hop.Hop{Kind: hop.OpSpoof, Spoof: op}
	got, bind, err := ExecSpoof(matrix.Ctx{}, h, []*matrix.Matrix{x}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bind != BindDict {
		t.Fatalf("eligible attached input ran under %s, want the dictionary binding", bind)
	}
	if math.Abs(got.Scalar()-want) > 1e-9*math.Abs(want) {
		t.Fatalf("compressed dispatch: got %v want %v", got.Scalar(), want)
	}
}

// TestCompressedBasicAgg: the Base-mode aggregate path (sum, colSums, min,
// max, mean) served from dictionaries.
func TestCompressedBasicAgg(t *testing.T) {
	x := claMatrix(700, 5, 8, 0.5, 600)
	attached(x)
	defer compress.Drop(x)
	for _, aop := range []matrix.AggOp{matrix.AggSum, matrix.AggSumSq, matrix.AggMin, matrix.AggMax, matrix.AggMean} {
		for _, dir := range []matrix.AggDir{matrix.DirAll, matrix.DirCol} {
			got, ok := compressedAgg(matrix.Ctx{}, aop, dir, x)
			if !ok {
				t.Fatalf("agg %v/%v declined", aop, dir)
			}
			want := matrix.Agg(aop, dir, x)
			if !got.EqualsApprox(want, 1e-9) {
				t.Fatalf("agg %v/%v mismatch", aop, dir)
			}
		}
	}
	if _, ok := compressedAgg(matrix.Ctx{}, matrix.AggSum, matrix.DirRow, x); ok {
		t.Fatal("row aggregates need per-row evaluation, must decline")
	}
}

// TestCompressedConsumer: which planned operators would use a compressed
// form of a read — the plan-time mirror of the skeleton dispatch.
func TestCompressedConsumer(t *testing.T) {
	d := hop.NewDAG()
	x := d.Read("X", 5000, 8, -1)
	y := d.Read("Y", 5000, 8, -1)
	v := d.Read("v", 5000, 1, -1)
	// The question is answered from the verdict the operator was compiled with.
	eligible := cplan.Compile(&cplan.Plan{Type: cplan.TemplateCell, Cell: cplan.CellFullAgg, AggOp: matrix.AggSum,
		Root: cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Main(0))}, "TMPe")
	perCell := cplan.Compile(&cplan.Plan{Type: cplan.TemplateCell, Cell: cplan.CellFullAgg, AggOp: matrix.AggSum, NumSides: 1,
		Root: cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Side(0, cplan.AccessCell, 0))}, "TMPc")
	rowOp := cplan.Compile(&cplan.Plan{Type: cplan.TemplateRow, Row: cplan.RowRowAgg,
		Root: cplan.Agg(matrix.AggSum, cplan.Main(8)), MainWidth: 8}, "TMPr")
	if eligible.NotCompressed != "" || perCell.Compressed || perCell.NotCompressed == "" {
		t.Fatalf("verdicts: eligible %q, per cell %v %q", eligible.NotCompressed, perCell.Compressed, perCell.NotCompressed)
	}

	for _, tc := range []struct {
		name        string
		h, in       *hop.Hop
		dist        bool
		ok, shipped bool
	}{
		{"eligible cell body over its main", d.NewSpoof("Cell", eligible, 1, 1, -1, x), x, false, true, false},
		{"per-cell side declines", d.NewSpoof("Cell", perCell, 1, 1, -1, x, y), x, false, false, false},
		{"a side of an eligible body", d.NewSpoof("Cell", perCell, 1, 1, -1, x, y), y, false, false, false},
		{"row body over 8 columns has no single group", d.NewSpoof("Row", rowOp, 5000, 1, -1, x), x, false, false, false},
		{"row body over a column vector", d.NewSpoof("Row", rowOp, 5000, 1, -1, v), v, false, true, false},
		{"full aggregate", d.Agg(matrix.AggSum, matrix.DirAll, x), x, false, true, false},
		{"row aggregate", d.Agg(matrix.AggSum, matrix.DirRow, x), x, false, false, false},
		{"matrix product", d.MatMult(d.Transpose(x), y), y, false, false, false},
	} {
		if ok, shipped := CompressedConsumer(tc.h, tc.in, tc.dist); ok != tc.ok || shipped != tc.shipped {
			t.Errorf("%s: got (%v, %v), want (%v, %v)", tc.name, ok, shipped, tc.ok, tc.shipped)
		}
	}
	// A distributed operator ships every input but its largest.
	mm := d.MatMult(x, d.Read("W", 8, 4, -1))
	mm.ExecType = hop.ExecDist
	if ok, shipped := CompressedConsumer(mm, mm.Inputs[1], true); !ok || !shipped {
		t.Errorf("broadcast side of a distributed product: got (%v, %v)", ok, shipped)
	}
	if ok, _ := CompressedConsumer(mm, x, true); ok {
		t.Error("the partitioned input of a distributed product is not shipped")
	}
	if ok, _ := CompressedConsumer(mm, mm.Inputs[1], false); ok {
		t.Error("without a backend the product runs locally and reads dense")
	}
}
