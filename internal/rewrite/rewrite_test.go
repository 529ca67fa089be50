package rewrite

import (
	"testing"

	"sysml/internal/hop"
	"sysml/internal/matrix"
)

func TestDoubleTransposeElimination(t *testing.T) {
	d := hop.NewDAG()
	x := d.Read("X", 10, 20, -1)
	d.Output("y", d.Transpose(d.Transpose(x)))
	out, st := Apply(d)
	y := out.Outputs["y"]
	if y.Kind != hop.OpData || y.Name != "X" {
		t.Fatalf("t(t(X)) not eliminated: %v", y)
	}
	if st.Simplified == 0 {
		t.Fatal("no simplification recorded")
	}
}

func TestConstantFolding(t *testing.T) {
	d := hop.NewDAG()
	two := d.Lit(2)
	three := d.Lit(3)
	d.Output("c", d.Binary(matrix.BinMul, two, three))
	out, st := Apply(d)
	c := out.Outputs["c"]
	if c.Kind != hop.OpLiteral || c.Value != 6 {
		t.Fatalf("2*3 not folded: %v", c)
	}
	if st.FoldedConstants != 1 {
		t.Fatalf("folded count = %d", st.FoldedConstants)
	}
	// Unary fold.
	d2 := hop.NewDAG()
	d2.Output("c", d2.Unary(matrix.UnNeg, d2.Lit(5)))
	out2, _ := Apply(d2)
	if out2.Outputs["c"].Value != -5 {
		t.Fatal("neg(5) not folded")
	}
}

func TestIdentitySimplifications(t *testing.T) {
	d := hop.NewDAG()
	x := d.Read("X", 10, 10, -1)
	d.Output("a", d.Binary(matrix.BinMul, x, d.Lit(1)))
	d.Output("b", d.Binary(matrix.BinAdd, d.Lit(0), x))
	d.Output("c", d.Binary(matrix.BinSub, x, d.Lit(0)))
	d.Output("d", d.Binary(matrix.BinDiv, x, d.Lit(1)))
	d.Output("e", d.Binary(matrix.BinPow, x, d.Lit(1)))
	out, _ := Apply(d)
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		if got := out.Outputs[name]; got.Kind != hop.OpData {
			t.Fatalf("%s not simplified to X: %v", name, got)
		}
	}
}

func TestZeroAndNegRewrites(t *testing.T) {
	d := hop.NewDAG()
	x := d.Read("X", 10, 10, -1)
	d.Output("z", d.Binary(matrix.BinMul, x, d.Lit(0)))
	d.Output("n", d.Binary(matrix.BinSub, d.Lit(0), x))
	out, _ := Apply(d)
	if z := out.Outputs["z"]; z.Kind != hop.OpDataGen || z.Nnz != 0 {
		t.Fatalf("X*0 not rewritten to empty: %v", z)
	}
	if n := out.Outputs["n"]; n.Kind != hop.OpUnary || n.UnOp != matrix.UnNeg {
		t.Fatalf("0-X not rewritten to neg: %v", n)
	}
}

func TestCSE(t *testing.T) {
	d := hop.NewDAG()
	x := d.Read("X", 10, 10, -1)
	y := d.Read("Y", 10, 10, -1)
	m1 := d.Binary(matrix.BinMul, x, y)
	m2 := d.Binary(matrix.BinMul, x, y) // identical subexpression
	d.Output("s1", d.Sum(m1))
	d.Output("s2", d.RowSums(m2))
	out, st := Apply(d)
	if st.CSEMerged == 0 {
		t.Fatal("CSE not applied")
	}
	s1 := out.Outputs["s1"]
	s2 := out.Outputs["s2"]
	if s1.Inputs[0] != s2.Inputs[0] {
		t.Fatal("shared subexpression not merged")
	}
	if s1.Inputs[0].NumConsumers() != 2 {
		t.Fatalf("merged node consumers = %d", s1.Inputs[0].NumConsumers())
	}
	// The duplicate CSE dropped is no consumer of X and Y.
	for _, in := range s1.Inputs[0].Inputs {
		if in.NumConsumers() != 1 {
			t.Errorf("%s has %d consumers, want the merged product alone", in, in.NumConsumers())
		}
	}
}

func TestSumTransposeRewrite(t *testing.T) {
	d := hop.NewDAG()
	x := d.Read("X", 10, 20, -1)
	d.Output("s", d.Sum(d.Transpose(x)))
	out, _ := Apply(d)
	s := out.Outputs["s"]
	if s.Inputs[0].Kind != hop.OpData {
		t.Fatalf("sum(t(X)) not simplified: %v", s.Inputs[0])
	}
}

func TestFullRangeIndexElimination(t *testing.T) {
	d := hop.NewDAG()
	x := d.Read("X", 10, 20, -1)
	d.Output("y", d.Index(x, 0, 10, 0, 20))
	d.Output("z", d.Index(x, 0, 10, 0, 5))
	out, _ := Apply(d)
	if out.Outputs["y"].Kind != hop.OpData {
		t.Fatal("full-range index not eliminated")
	}
	if out.Outputs["z"].Kind != hop.OpIndex {
		t.Fatal("partial index wrongly eliminated")
	}
}

func TestRewritePreservesStructure(t *testing.T) {
	// MLogreg inner expression shape survives a rewrite round trip.
	d := hop.NewDAG()
	x := d.Read("X", 100, 10, -1)
	v := d.Read("v", 10, 3, -1)
	p := d.Read("P", 100, 3, -1)
	q := d.Binary(matrix.BinMul, p, d.MatMult(x, v))
	h := d.MatMult(d.Transpose(x), d.Binary(matrix.BinSub, q, d.Binary(matrix.BinMul, p, d.RowSums(q))))
	d.Output("H", h)
	out, _ := Apply(d)
	got := out.Outputs["H"]
	if got.Kind != hop.OpMatMult || got.Rows != 10 || got.Cols != 3 {
		t.Fatalf("structure damaged: %v %dx%d", got, got.Rows, got.Cols)
	}
	// The two references to Q must resolve to one node (hash-consing).
	sub := got.Inputs[1]
	qNode := sub.Inputs[0]
	if qNode.NumConsumers() != 2 {
		t.Fatalf("Q consumers = %d, want 2", qNode.NumConsumers())
	}
}
