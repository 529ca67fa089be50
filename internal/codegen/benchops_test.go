package codegen_test

import (
	"fmt"
	"strings"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/cplan"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/rewrite"
)

// cnodeString renders a cell body compactly: main, side<i>, literals, and
// operators over their children.
func cnodeString(n *cplan.CNode) string {
	switch n.Kind {
	case cplan.NodeMain:
		return "main"
	case cplan.NodeSide:
		return fmt.Sprintf("side%d", n.Side)
	case cplan.NodeLit:
		return fmt.Sprint(n.Value)
	case cplan.NodeBinary:
		return fmt.Sprintf("%v(%s,%s)", n.BinOp, cnodeString(n.Children[0]), cnodeString(n.Children[1]))
	case cplan.NodeUnary:
		return fmt.Sprintf("%v(%s)", n.UnOp, cnodeString(n.Children[0]))
	}
	return fmt.Sprintf("kind%d", n.Kind)
}

// TestBenchmarkSiblingOperatorsArePinned builds the benchmark's three
// sibling programs of fused_ops (magg.dense, magg.sparse, hfuse.dense) with
// the hop builder at their sizes, 100000×100 and a sparse X of 0.1, and pins
// the one operator each is planned as: template, bodies, inputs and plan hash
// (the plan cache's key). These are the operators the benchmark times.
func TestBenchmarkSiblingOperatorsArePinned(t *testing.T) {
	const rows, cols = 100000, 100
	magg := func(xNnz int64) func(d *hop.DAG) {
		return func(d *hop.DAG) {
			x := d.Read("X", rows, cols, xNnz)
			d.Output("s1", d.Sum(d.Binary(matrix.BinMul, x, d.Read("Y", rows, cols, -1))))
			d.Output("s2", d.Sum(d.Binary(matrix.BinMul, x, d.Read("Z", rows, cols, -1))))
		}
	}
	cases := []struct {
		name     string
		build    func(d *hop.DAG)
		template string
		roots    string
		inputs   string
		hash     uint64
	}{
		{"magg.dense", magg(-1), "MAgg", "*(main,side0); *(main,side1)", "X,Y,Z", 0x9cdb500453d7188b},
		{"magg.sparse", magg(rows * cols / 10), "MAgg", "*(main,side0); *(main,side1)", "X,Y,Z", 0x9cdb500453d7188b},
		{"hfuse.dense", func(d *hop.DAG) {
			x := d.Read("X", rows, cols, -1)
			d.Output("C", d.ColSums(x))
			d.Output("s", d.Sum(d.Binary(matrix.BinPow, x, d.Lit(2))))
			d.Output("Y", d.Binary(matrix.BinAdd, d.Binary(matrix.BinMul, x, d.Lit(3)), d.Lit(1)))
		}, "Horizontal", "main; ^(main,2); +(*(main,3),1)", "X", 0x405e8cf8505f317b},
	}
	for _, tc := range cases {
		d := hop.NewDAG()
		tc.build(d)
		d, _ = rewrite.Apply(d)
		cfg := codegen.DefaultConfig()
		d = codegen.Optimize(d, &cfg, codegen.NewPlanCache(true), codegen.NewStats())
		var spoofs []*hop.Hop
		for _, h := range hop.TopoOrder(d.Roots()) {
			if h.Kind == hop.OpSpoof {
				spoofs = append(spoofs, h)
			}
		}
		if len(spoofs) != 1 {
			t.Errorf("%s: %d fused operators, want one\n%s", tc.name, len(spoofs), hop.Explain(d.Roots()))
			continue
		}
		op := spoofs[0].Spoof.(*cplan.Operator)
		var roots, inputs []string
		for _, r := range op.Plan.Roots {
			roots = append(roots, cnodeString(r))
		}
		for _, in := range spoofs[0].Inputs {
			inputs = append(inputs, in.Name)
		}
		got := fmt.Sprintf("%s [%s] over %s, hash %#x", spoofs[0].SpoofType, strings.Join(roots, "; "), strings.Join(inputs, ","), op.Plan.Hash())
		want := fmt.Sprintf("%s [%s] over %s, hash %#x", tc.template, tc.roots, tc.inputs, tc.hash)
		if got != want {
			t.Errorf("%s: operator %s, want %s", tc.name, got, want)
		}
	}
}
