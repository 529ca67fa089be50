package bench

import (
	"fmt"

	"sysml/internal/codegen"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/rewrite"
)

// AblationOrder quantifies the search-space linearization choice (§4.4):
// evaluating the fuse-all plan first yields a tight initial upper bound,
// so cost-based pruning fires early; the inverted order starts from the
// materialize-everything plan and prunes far less.
func AblationOrder(o Options) *Table {
	t := &Table{
		Title:   "Ablation: search-space linearization (evaluated plans w/ cost pruning)",
		Columns: []string{"pattern", "fuse-all first", "inverted"},
	}
	patterns := []struct {
		name  string
		build func() *hop.DAG
	}{
		{"cse-chain", func() *hop.DAG {
			d := hop.NewDAG()
			x := d.Read("X", 10000, 40, -1)
			y := d.Read("Y", 10000, 40, -1)
			r := d.Binary(matrix.BinMul, x, y)
			s := d.Binary(matrix.BinAdd, r, d.Lit(1))
			u := d.Unary(matrix.UnExp, s)
			d.Output("a", d.Sum(u))
			d.Output("b", d.RowSums(u))
			d.Output("c", d.Sum(d.Binary(matrix.BinMul, r, r)))
			return d
		}},
		{"mlogreg-core", func() *hop.DAG {
			d := hop.NewDAG()
			x := d.Read("X", 20000, 50, -1)
			v := d.Read("v", 50, 3, -1)
			p := d.Read("P", 20000, 3, -1)
			q := d.Binary(matrix.BinMul, p, d.MatMult(x, v))
			h := d.MatMult(d.Transpose(x),
				d.Binary(matrix.BinSub, q, d.Binary(matrix.BinMul, p, d.RowSums(q))))
			d.Output("H", h)
			d.Output("obj", d.Sum(q))
			return d
		}},
	}
	for _, pat := range patterns {
		row := []string{pat.name}
		for _, inverted := range []bool{false, true} {
			cfg := codegen.DefaultConfig()
			cfg.EnableStructPrune = false // isolate the cost-pruning effect
			d, _ := rewrite.Apply(pat.build())
			memo := codegen.Explore(d.Roots(), &cfg)
			parts := codegen.BuildPartitions(memo, d.Roots())
			var evaluated int64
			for _, p := range parts {
				en := codegen.NewEnumerator(&cfg, memo, p)
				en.InvertOrder = inverted
				en.Best()
				evaluated += en.Evaluated
			}
			row = append(row, fmt.Sprintf("%d", evaluated))
		}
		t.Add(row...)
	}
	return t
}

// AblationMAgg measures the multi-aggregate template: the shared-input
// aggregates of Fig. 1(c) with and without MAgg combining.
func AblationMAgg(o Options) *Table {
	t := &Table{
		Title:   "Ablation: multi-aggregate fusion (sum(X*Y), sum(X*Z)) [ms]",
		Columns: []string{"cells", "Gen", "Gen w/o MAgg"},
	}
	script := "s1 = sum(X * Y)\ns2 = sum(X * Z)"
	cols := 100
	for _, rows := range []int{o.rows(10000), o.rows(100000)} {
		inputs := map[string]*matrix.Matrix{
			"X": matrix.Rand(rows, cols, 1, -1, 1, 91),
			"Y": matrix.Rand(rows, cols, 1, -1, 1, 92),
			"Z": matrix.Rand(rows, cols, 1, -1, 1, 93),
		}
		with := timeScript(codegen.ModeGen, o.Reps, script, inputs, nil)
		// Without MAgg: two independent fused aggregates re-scan X.
		cfg := codegen.DefaultConfig()
		cfg.DisableMAgg = true
		without := timeScriptCfg(cfg, o.Reps, script, inputs, nil)
		t.Add(fmt.Sprintf("%d", rows*cols), ms(with), ms(without))
	}
	return t
}

// AblationDominance counts memo entries removed by dominance pruning on a
// CSE-heavy DAG (used for the heuristic selectors).
func AblationDominance(o Options) *Table {
	t := &Table{
		Title:   "Ablation: dominance pruning (memo entries)",
		Columns: []string{"pattern", "before", "after"},
	}
	d := hop.NewDAG()
	x := d.Read("X", 1000, 50, -1)
	y := d.Read("Y", 1000, 50, -1)
	m1 := d.Binary(matrix.BinMul, x, y)  // single consumer chain
	m2 := d.Binary(matrix.BinAdd, m1, x) // consumed twice below
	d.Output("s", d.Sum(d.Binary(matrix.BinMul, m2, y)))
	d.Output("r", d.RowSums(m2))
	dd, _ := rewrite.Apply(d)
	cfg := codegen.DefaultConfig()
	memo := codegen.Explore(dd.Roots(), &cfg)
	before := countEntries(memo)
	codegen.PruneDominated(memo)
	after := countEntries(memo)
	t.Add("cse-mixed", fmt.Sprintf("%d", before), fmt.Sprintf("%d", after))
	return t
}

func countEntries(m *codegen.Memo) int {
	n := 0
	for _, g := range m.Groups {
		n += len(g.Entries)
	}
	return n
}
