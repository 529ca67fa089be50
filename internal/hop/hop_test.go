package hop

import (
	"strings"
	"testing"

	"sysml/internal/matrix"
)

func TestBuilderShapes(t *testing.T) {
	d := NewDAG()
	x := d.Read("X", 100, 10, -1)
	v := d.Read("v", 10, 1, -1)
	q := d.MatMult(x, v)
	if q.Rows != 100 || q.Cols != 1 {
		t.Fatalf("matmult dims %dx%d", q.Rows, q.Cols)
	}
	xt := d.Transpose(x)
	if xt.Rows != 10 || xt.Cols != 100 {
		t.Fatal("transpose dims")
	}
	h := d.MatMult(xt, q)
	if h.Rows != 10 || h.Cols != 1 {
		t.Fatal("chain dims")
	}
	s := d.Sum(h)
	if !s.IsScalar() {
		t.Fatal("sum must be scalar")
	}
	rs := d.RowSums(x)
	if rs.Rows != 100 || rs.Cols != 1 {
		t.Fatal("rowSums dims")
	}
	cs := d.ColSums(x)
	if cs.Rows != 1 || cs.Cols != 10 {
		t.Fatal("colSums dims")
	}
	ix := d.Index(x, 0, 100, 0, 5)
	if ix.Cols != 5 {
		t.Fatal("index dims")
	}
	cb := d.CBindOp(x, rs)
	if cb.Cols != 11 {
		t.Fatal("cbind dims")
	}
	rb := d.RBindOp(x, d.Read("Y", 5, 10, -1))
	if rb.Rows != 105 {
		t.Fatal("rbind dims")
	}
	rim := d.RowIndexMaxOp(x)
	if rim.Cols != 1 {
		t.Fatal("rowIndexMax dims")
	}
	dg := d.DiagOp(v)
	if dg.Rows != 10 || dg.Cols != 10 {
		t.Fatal("diag dims")
	}
}

func TestBroadcastShapes(t *testing.T) {
	d := NewDAG()
	x := d.Read("X", 100, 10, -1)
	cv := d.Read("c", 100, 1, -1)
	rv := d.Read("r", 1, 10, -1)
	s := d.Lit(3)
	if got := d.Binary(matrix.BinMul, x, cv); got.Rows != 100 || got.Cols != 10 {
		t.Fatal("col broadcast dims")
	}
	if got := d.Binary(matrix.BinAdd, x, rv); got.Rows != 100 || got.Cols != 10 {
		t.Fatal("row broadcast dims")
	}
	if got := d.Binary(matrix.BinMul, cv, x); got.Rows != 100 || got.Cols != 10 {
		t.Fatal("left col broadcast dims")
	}
	if got := d.Binary(matrix.BinMul, s, x); got.Rows != 100 || got.Cols != 10 {
		t.Fatal("scalar broadcast dims")
	}
}

func TestSparsityEstimates(t *testing.T) {
	d := NewDAG()
	x := d.Read("X", 1000, 1000, 10000) // sparsity 0.01
	y := d.Read("Y", 1000, 1000, -1)    // dense
	m := d.Binary(matrix.BinMul, x, y)
	if sp := m.Sparsity(); sp < 0.005 || sp > 0.02 {
		t.Fatalf("mul sparsity estimate %v", sp)
	}
	if !m.IsSparse() {
		t.Fatal("sparse*dense output should be estimated sparse")
	}
	a := d.Binary(matrix.BinAdd, x, y)
	if a.IsSparse() {
		t.Fatal("sparse+dense should be dense")
	}
	e := d.Unary(matrix.UnExp, x)
	if e.IsSparse() {
		t.Fatal("exp densifies")
	}
	ab := d.Unary(matrix.UnAbs, x)
	if !ab.IsSparse() {
		t.Fatal("abs preserves sparsity")
	}
	// Ultra-sparse matmult stays sparse-ish; dense matmult estimates dense.
	u := d.Read("U", 1000, 10, -1)
	vt := d.Read("Vt", 10, 1000, -1)
	uv := d.MatMult(u, vt)
	if uv.IsSparse() {
		t.Fatal("dense outer product must be dense")
	}
}

func TestTopoOrderAndParents(t *testing.T) {
	d := NewDAG()
	x := d.Read("X", 10, 10, -1)
	y := d.Read("Y", 10, 10, -1)
	m := d.Binary(matrix.BinMul, x, y)
	s1 := d.Sum(m)
	s2 := d.RowSums(m)
	d.Output("s1", s1)
	d.Output("s2", s2)
	if m.NumConsumers() != 2 {
		t.Fatalf("m consumers = %d", m.NumConsumers())
	}
	order := TopoOrder(d.Roots())
	pos := map[int64]int{}
	for i, h := range order {
		pos[h.ID] = i
	}
	for _, h := range order {
		for _, in := range h.Inputs {
			if pos[in.ID] >= pos[h.ID] {
				t.Fatal("topo order violated")
			}
		}
	}
	if len(order) != 5 {
		t.Fatalf("expected 5 nodes, got %d", len(order))
	}
}

func TestExecTypeAssignment(t *testing.T) {
	d := NewDAG()
	x := d.Read("X", 1000000, 100, -1) // 800 MB dense
	s := d.Sum(x)
	d.Output("s", s)
	AssignExecTypes(d.Roots(), ExecConfig{MemBudgetBytes: 1 << 20, Blocksize: 1000})
	if s.ExecType != ExecDist {
		t.Fatal("large op must be distributed")
	}
	AssignExecTypes(d.Roots(), DefaultExecConfig())
	if s.ExecType != ExecLocal {
		t.Fatal("op within budget must be local")
	}
}

func TestExplain(t *testing.T) {
	d := NewDAG()
	x := d.Read("X", 10, 10, -1)
	s := d.Sum(d.Binary(matrix.BinMul, x, x))
	d.Output("s", s)
	out := Explain(d.Roots())
	if !strings.Contains(out, "data(X)") || !strings.Contains(out, "b(*)") || !strings.Contains(out, "ua(sum)") {
		t.Fatalf("explain output missing pieces:\n%s", out)
	}
}

func TestReplaceInput(t *testing.T) {
	d := NewDAG()
	x := d.Read("X", 10, 10, -1)
	y := d.Read("Y", 10, 10, -1)
	m := d.Binary(matrix.BinMul, x, y)
	z := d.Read("Z", 10, 10, -1)
	m.ReplaceInput(y, z)
	if m.Inputs[1] != z {
		t.Fatal("input not replaced")
	}
	if len(y.Parents) != 0 {
		t.Fatal("old parent not removed")
	}
	if len(z.Parents) != 1 || z.Parents[0] != m {
		t.Fatal("new parent not added")
	}
}

func TestOutputSizeBytes(t *testing.T) {
	d := NewDAG()
	x := d.Read("X", 1000, 1000, 1000) // very sparse
	if x.OutputSizeBytes() >= 8*1000*1000 {
		t.Fatal("sparse output size should be far below dense")
	}
	y := d.Read("Y", 1000, 1000, -1)
	if y.OutputSizeBytes() != 8*1000*1000 {
		t.Fatal("dense output size")
	}
}
