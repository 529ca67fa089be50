package codegen_test

import (
	"math"
	"strings"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/cplan"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/obs"
	"sysml/internal/rewrite"
	"sysml/internal/runtime"
)

// mlogregDAG builds the paper's Fig. 5 example DAG: Expression (2).
func mlogregDAG() *hop.DAG {
	d := hop.NewDAG()
	x := d.Read("X", 1000, 100, -1)
	v := d.Read("v", 100, 3, -1)
	p := d.Read("P", 1000, 4, -1)
	pk := d.Index(p, 0, 1000, 0, 3)
	q := d.Binary(matrix.BinMul, pk, d.MatMult(x, v))
	h := d.MatMult(d.Transpose(x),
		d.Binary(matrix.BinSub, q, d.Binary(matrix.BinMul, pk, d.RowSums(q))))
	d.Output("H", h)
	return d
}

func TestExploreMLogregMemo(t *testing.T) {
	cfg := codegen.DefaultConfig()
	d := mlogregDAG()
	memo := codegen.Explore(d.Roots(), &cfg)
	// The final matmult must hold the three Row alternatives of Fig. 5:
	// fuse right, fuse left, fuse both.
	final := d.Outputs["H"]
	g := memo.Get(final.ID)
	if g == nil {
		t.Fatalf("no group for final matmult; memo:\n%s", memo)
	}
	var fuseLeft, fuseRight, fuseBoth bool
	for _, e := range g.Entries {
		if e.Type.String() != "Row" {
			continue
		}
		l, r := e.Inputs[0] >= 0, e.Inputs[1] >= 0
		switch {
		case l && r:
			fuseBoth = true
		case l:
			fuseLeft = true
		case r:
			fuseRight = true
		}
	}
	if !fuseLeft || !fuseRight || !fuseBoth {
		t.Fatalf("missing Row alternatives at final matmult (left=%v right=%v both=%v)\n%s",
			fuseLeft, fuseRight, fuseBoth, memo)
	}
	// rowSums(Q) must hold R(-1), R(ref) and C(ref) like group 7 in Fig. 5.
	rs := final.Inputs[1].Inputs[1].Inputs[1] // b(-) -> b(*) -> ua(R+)
	if rs.Kind != hop.OpAggUnary {
		t.Fatalf("unexpected DAG shape: %v", rs)
	}
	grs := memo.Get(rs.ID)
	if grs == nil {
		t.Fatal("no group at rowSums")
	}
	hasRowOpen, hasRowRef, hasCellRef := false, false, false
	for _, e := range grs.Entries {
		switch {
		case e.Type.String() == "Row" && !e.HasRef():
			hasRowOpen = true
		case e.Type.String() == "Row" && e.HasRef():
			hasRowRef = true
		case e.Type.String() == "Cell" && e.HasRef():
			hasCellRef = true
		}
	}
	if !hasRowOpen || !hasRowRef || !hasCellRef {
		t.Fatalf("rowSums group incomplete (Ropen=%v Rref=%v Cref=%v):\n%s",
			hasRowOpen, hasRowRef, hasCellRef, memo)
	}
	// No C(-1) at rowSums: closed-valid entries without refs are pruned.
	for _, e := range grs.Entries {
		if e.Type.String() == "Cell" && !e.HasRef() {
			t.Fatalf("unpruned single-op cell plan at rowSums: %v", e)
		}
	}
}

// patterns used for cross-mode equivalence testing.
var eqPatterns = []struct {
	name  string
	build func() *hop.DAG
	env   func() runtime.Env
}{
	{
		name: "sumXYZ-dense",
		build: func() *hop.DAG {
			d := hop.NewDAG()
			x := d.Read("X", 300, 40, -1)
			y := d.Read("Y", 300, 40, -1)
			z := d.Read("Z", 300, 40, -1)
			d.Output("s", d.Sum(d.Binary(matrix.BinMul, d.Binary(matrix.BinMul, x, y), z)))
			return d
		},
		env: func() runtime.Env {
			return runtime.Env{
				"X": matrix.Rand(300, 40, 1, -1, 1, 1),
				"Y": matrix.Rand(300, 40, 1, -1, 1, 2),
				"Z": matrix.Rand(300, 40, 1, -1, 1, 3),
			}
		},
	},
	{
		name: "sumXYZ-sparse",
		build: func() *hop.DAG {
			d := hop.NewDAG()
			x := d.Read("X", 300, 40, 1200)
			y := d.Read("Y", 300, 40, -1)
			z := d.Read("Z", 300, 40, -1)
			d.Output("s", d.Sum(d.Binary(matrix.BinMul, d.Binary(matrix.BinMul, x, y), z)))
			return d
		},
		env: func() runtime.Env {
			return runtime.Env{
				"X": matrix.Rand(300, 40, 0.1, -1, 1, 4),
				"Y": matrix.Rand(300, 40, 1, -1, 1, 5),
				"Z": matrix.Rand(300, 40, 1, -1, 1, 6),
			}
		},
	},
	{
		name: "multiAgg",
		build: func() *hop.DAG {
			d := hop.NewDAG()
			// 400 KB of X: above the sibling gate's ~320 KB at the
			// default ReadBW, below it the two sums stay two Cell operators.
			x := d.Read("X", 1000, 50, -1)
			y := d.Read("Y", 1000, 50, -1)
			z := d.Read("Z", 1000, 50, -1)
			d.Output("s1", d.Sum(d.Binary(matrix.BinMul, x, y)))
			d.Output("s2", d.Sum(d.Binary(matrix.BinMul, x, z)))
			return d
		},
		env: func() runtime.Env {
			return runtime.Env{
				"X": matrix.Rand(1000, 50, 1, -1, 1, 7),
				"Y": matrix.Rand(1000, 50, 1, -1, 1, 8),
				"Z": matrix.Rand(1000, 50, 1, -1, 1, 9),
			}
		},
	},
	{
		name: "mvchain",
		build: func() *hop.DAG {
			d := hop.NewDAG()
			x := d.Read("X", 400, 30, -1)
			v := d.Read("v", 30, 1, -1)
			d.Output("w", d.MatMult(d.Transpose(x), d.MatMult(x, v)))
			return d
		},
		env: func() runtime.Env {
			return runtime.Env{
				"X": matrix.Rand(400, 30, 1, -1, 1, 10),
				"v": matrix.Rand(30, 1, 1, -1, 1, 11),
			}
		},
	},
	{
		name:  "mlogreg",
		build: mlogregDAG,
		env: func() runtime.Env {
			return runtime.Env{
				"X": matrix.Rand(1000, 100, 1, -1, 1, 12),
				"v": matrix.Rand(100, 3, 1, -1, 1, 13),
				"P": matrix.Rand(1000, 4, 1, 0, 1, 14),
			}
		},
	},
	{
		name: "als-update",
		build: func() *hop.DAG {
			d := hop.NewDAG()
			x := d.Read("X", 300, 200, 3000)
			u := d.Read("U", 300, 10, -1)
			v := d.Read("V", 200, 10, -1)
			mask := d.Binary(matrix.BinNeq, x, d.Lit(0))
			uvt := d.MatMult(u, d.Transpose(v))
			o := d.MatMult(d.Binary(matrix.BinMul, mask, uvt), v)
			d.Output("O", o)
			return d
		},
		env: func() runtime.Env {
			return runtime.Env{
				"X": matrix.Rand(300, 200, 0.05, 1, 2, 15),
				"U": matrix.Rand(300, 10, 1, -1, 1, 16),
				"V": matrix.Rand(200, 10, 1, -1, 1, 17),
			}
		},
	},
	{
		name: "wsloss",
		build: func() *hop.DAG {
			d := hop.NewDAG()
			x := d.Read("X", 250, 150, 2000)
			u := d.Read("U", 250, 8, -1)
			v := d.Read("V", 150, 8, -1)
			uvt := d.MatMult(u, d.Transpose(v))
			lg := d.Unary(matrix.UnLog, d.Binary(matrix.BinAdd, uvt, d.Lit(1e-15)))
			d.Output("s", d.Sum(d.Binary(matrix.BinMul, x, lg)))
			return d
		},
		env: func() runtime.Env {
			return runtime.Env{
				"X": matrix.Rand(250, 150, 0.05, 1, 2, 18),
				"U": matrix.Rand(250, 8, 1, 0.1, 1, 19),
				"V": matrix.Rand(150, 8, 1, 0.1, 1, 20),
			}
		},
	},
	{
		name: "rownorm",
		build: func() *hop.DAG {
			d := hop.NewDAG()
			x := d.Read("X", 200, 60, -1)
			d.Output("N", d.Binary(matrix.BinDiv, x, d.RowSums(x)))
			return d
		},
		env: func() runtime.Env {
			return runtime.Env{"X": matrix.Rand(200, 60, 1, 1, 2, 21)}
		},
	},
	{
		name: "cse-two-consumers",
		build: func() *hop.DAG {
			d := hop.NewDAG()
			x := d.Read("X", 150, 80, -1)
			y := d.Read("Y", 150, 80, -1)
			r := d.Binary(matrix.BinMul, x, y)
			d.Output("s", d.Sum(r))
			d.Output("rs", d.RowSums(d.Binary(matrix.BinAdd, r, d.Lit(1))))
			return d
		},
		env: func() runtime.Env {
			return runtime.Env{
				"X": matrix.Rand(150, 80, 1, -1, 1, 22),
				"Y": matrix.Rand(150, 80, 1, -1, 1, 23),
			}
		},
	},
	{
		name: "l2svm-core",
		build: func() *hop.DAG {
			// out = t(X) %*% (out12 * y) style pattern with scalar chains.
			d := hop.NewDAG()
			x := d.Read("X", 300, 20, -1)
			y := d.Read("y", 300, 1, -1)
			w := d.Read("w", 20, 1, -1)
			out := d.Binary(matrix.BinMul, y, d.MatMult(x, w))
			sv := d.Binary(matrix.BinLt, out, d.Lit(1))
			g := d.MatMult(d.Transpose(x), d.Binary(matrix.BinMul, sv, y))
			d.Output("g", g)
			d.Output("hinge", d.Sum(d.Binary(matrix.BinMax,
				d.Binary(matrix.BinSub, d.Lit(1), out), d.Lit(0))))
			return d
		},
		env: func() runtime.Env {
			return runtime.Env{
				"X": matrix.Rand(300, 20, 1, -1, 1, 24),
				"y": matrix.Rand(300, 1, 1, -1, 1, 25),
				"w": matrix.Rand(20, 1, 1, -1, 1, 26),
			}
		},
	},
}

func TestOptimizeEquivalenceAcrossModes(t *testing.T) {
	modes := []codegen.Mode{codegen.ModeBase, codegen.ModeFused, codegen.ModeGen,
		codegen.ModeGenFA, codegen.ModeGenFNR}
	for _, pat := range eqPatterns {
		env := pat.env()
		// Reference: basic execution of the unoptimized DAG.
		refDAG, _ := rewrite.Apply(pat.build())
		ref, err := runtime.ExecuteDAG(refDAG, env, runtime.Options{})
		if err != nil {
			t.Fatalf("%s: reference exec: %v", pat.name, err)
		}
		for _, mode := range modes {
			cfg := codegen.DefaultConfig()
			cfg.Mode = mode
			cache := codegen.NewPlanCacheSized(true, 0)
			stats := codegen.NewStats()
			d, _ := rewrite.Apply(pat.build())
			d = codegen.Optimize(d, &cfg, cache, stats)
			got, err := runtime.ExecuteDAG(d, env, runtime.Options{})
			if err != nil {
				t.Fatalf("%s/%v: exec: %v\n%s", pat.name, mode, err, hop.Explain(d.Roots()))
			}
			for name, want := range ref {
				if !got[name].EqualsApprox(want, 1e-7) {
					t.Errorf("%s/%v: output %q differs\nplan:\n%s",
						pat.name, mode, name, hop.Explain(d.Roots()))
				}
			}
		}
	}
}

func TestGenProducesFusedOperators(t *testing.T) {
	// mvchain and rownorm are Row-template patterns whose test sizes fall
	// below the per-row dispatch profitability threshold: Gen correctly
	// declines fusion there (covered at scale in
	// TestGenSelectsExpectedTemplates).
	declined := map[string]bool{"mvchain": true, "rownorm": true}
	for _, pat := range eqPatterns {
		if declined[pat.name] {
			continue
		}
		cfg := codegen.DefaultConfig()
		cache := codegen.NewPlanCacheSized(true, 0)
		stats := codegen.NewStats()
		d, _ := rewrite.Apply(pat.build())
		d = codegen.Optimize(d, &cfg, cache, stats)
		found := false
		for _, h := range hop.TopoOrder(d.Roots()) {
			if h.Kind == hop.OpSpoof {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: Gen produced no fused operators:\n%s", pat.name, hop.Explain(d.Roots()))
		}
	}
}

func TestGenSelectsExpectedTemplates(t *testing.T) {
	check := func(name string, idx int, want string) {
		cfg := codegen.DefaultConfig()
		d, _ := rewrite.Apply(eqPatterns[idx].build())
		d = codegen.Optimize(d, &cfg, codegen.NewPlanCacheSized(true, 0), codegen.NewStats())
		var types []string
		for _, h := range hop.TopoOrder(d.Roots()) {
			if h.Kind == hop.OpSpoof {
				types = append(types, h.SpoofType)
			}
		}
		if len(types) == 0 || !strings.Contains(strings.Join(types, ","), want) {
			t.Errorf("%s: expected template %s, got %v\n%s", name, want, types, hop.Explain(d.Roots()))
		}
	}
	check("sumXYZ", 0, "Cell")
	check("multiAgg", 2, "MAgg")
	check("als-update", 5, "Outer")
	check("wsloss", 6, "Outer")
	// Row selection at a size where fusion is profitable (the per-row
	// dispatch model declines tiny inputs).
	d := hop.NewDAG()
	x := d.Read("X", 50000, 100, -1)
	v := d.Read("v", 100, 1, -1)
	d.Output("w", d.MatMult(d.Transpose(x), d.MatMult(x, v)))
	cfg := codegen.DefaultConfig()
	dd, _ := rewrite.Apply(d)
	dd = codegen.Optimize(dd, &cfg, codegen.NewPlanCacheSized(true, 0), codegen.NewStats())
	foundRow := false
	for _, h := range hop.TopoOrder(dd.Roots()) {
		if h.Kind == hop.OpSpoof && h.SpoofType == "Row" {
			foundRow = true
		}
	}
	if !foundRow {
		t.Errorf("mvchain at scale: expected Row template\n%s", hop.Explain(dd.Roots()))
	}
}

func TestPlanCacheReuse(t *testing.T) {
	cfg := codegen.DefaultConfig()
	cache := codegen.NewPlanCacheSized(true, 0)
	stats := codegen.NewStats()
	for i := 0; i < 3; i++ {
		d, _ := rewrite.Apply(eqPatterns[0].build())
		codegen.Optimize(d, &cfg, cache, stats)
	}
	if stats.OperatorsCompiled != 1 {
		t.Fatalf("expected 1 compile, got %d", stats.OperatorsCompiled)
	}
	if stats.CacheHits < 2 {
		t.Fatalf("expected >=2 cache hits, got %d", stats.CacheHits)
	}
	// Disabled cache compiles every time.
	cache2 := codegen.NewPlanCacheSized(false, 0)
	stats2 := codegen.NewStats()
	for i := 0; i < 3; i++ {
		d, _ := rewrite.Apply(eqPatterns[0].build())
		codegen.Optimize(d, &cfg, cache2, stats2)
	}
	if stats2.OperatorsCompiled != 3 || stats2.CacheHits != 0 {
		t.Fatalf("disabled cache: compiled=%d hits=%d", stats2.OperatorsCompiled, stats2.CacheHits)
	}
}

// TestCellPlanServesEveryWidth: a Cell plan's hash carries no shape, and its
// one body is compiled once for any — a region over column vectors that enter
// it from outside (construction used to decline it) is the same operator at
// a serve request's 128×64 and at an n×2 of MLogreg's, and runs over both.
// (The serve path's plan cache depends on it.)
func TestCellPlanServesEveryWidth(t *testing.T) {
	cfg := codegen.DefaultConfig()
	cache, stats := codegen.NewPlanCacheSized(true, 0), codegen.NewStats()
	var ops []*cplan.Operator
	for _, sh := range [][2]int{{128, 64}, {3000, 2}} {
		rows, cols := sh[0], sh[1]
		d := hop.NewDAG()
		x := d.Read("X", int64(rows), int64(cols), -1)
		e := d.Unary(matrix.UnExp, d.Binary(matrix.BinSub, x, d.Read("m", int64(rows), 1, -1)))
		d.Output("P", d.Binary(matrix.BinDiv, e, d.Binary(matrix.BinAdd, d.Read("c", int64(rows), 1, -1), d.Lit(1))))
		d, _ = rewrite.Apply(d)
		d = codegen.Optimize(d, &cfg, cache, stats)
		env := runtime.Env{"X": matrix.Rand(rows, cols, 1, -1, 1, 5), "c": matrix.Rand(rows, 1, 1, 1, 2, 6)}
		env["m"] = matrix.Agg(matrix.AggMax, matrix.DirRow, env["X"])
		metrics := obs.NewMetrics()
		got, err := runtime.ExecuteDAG(d, env, runtime.Options{Metrics: metrics})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hop.TopoOrder(d.Roots()) {
			if op, ok := h.Spoof.(*cplan.Operator); ok && op.Plan.Type == cplan.TemplateCell && h.Cols == int64(cols) {
				ops = append(ops, op)
			}
		}
		if snap := metrics.Snapshot(); snap.Counter(string(runtime.BindFill)) != 0 || snap.Counter(string(runtime.BindView)) == 0 {
			t.Fatalf("%dx%d: the column sides must be scalar registers, not filled ones:\n%s", rows, cols, hop.Explain(d.Roots()))
		}
		x0, c0, rowMax := env["X"], env["c"], env["m"]
		want := matrix.Binary(matrix.BinDiv, matrix.Unary(matrix.UnExp, matrix.Binary(matrix.BinSub, x0, rowMax)),
			matrix.ScalarRight(matrix.BinAdd, c0, 1))
		if !got["P"].EqualsApprox(want, 1e-12) {
			t.Fatalf("%dx%d: fused result differs from the basic operators", rows, cols)
		}
	}
	if len(ops) != 2 || ops[0] != ops[1] || ops[0].Hash != ops[1].Plan.Hash() {
		t.Fatalf("want one compiled Cell operator serving both shapes, got %v", ops)
	}
}

func TestEnumerationCountersAndPruning(t *testing.T) {
	// The CSE pattern has materialization points; pruning must not change
	// the chosen plan's cost, only the number of evaluated plans.
	build := eqPatterns[8].build
	run := func(part, costP, structP bool) (int64, float64) {
		cfg := codegen.DefaultConfig()
		cfg.EnablePartition, cfg.EnableCostPrune, cfg.EnableStructPrune = part, costP, structP
		d, _ := rewrite.Apply(build())
		memo := codegen.Explore(d.Roots(), &cfg)
		parts := codegen.BuildPartitions(memo, d.Roots())
		var evaluated int64
		var cost float64
		for _, p := range parts {
			en := codegen.NewEnumerator(&cfg, memo, p)
			en.Best()
			evaluated += en.Evaluated
			cost += en.BestCost()
		}
		return evaluated, cost
	}
	evalAll, costAll := run(true, false, false)
	evalPruned, costPruned := run(true, true, true)
	// Two points at the 150x80 product X*Y: 4 plans. Writing the product and
	// reading it back once costs more than everything fuse-all does, reads
	// hidden behind nothing, so the bound (Coster.LowerBound) skips both
	// subtrees once fuse-all is costed.
	if evalAll != 4 || evalPruned != 1 {
		t.Fatalf("plans costed: %d unpruned (want 4), %d pruned (want 1)", evalAll, evalPruned)
	}
	// Both prunings are lossless (TestSearchReturnsTheOptimum holds them to
	// that on every partition it can scan): the same cost, not one no worse.
	if math.Abs(costPruned-costAll) > 1e-9*costAll {
		t.Fatalf("pruning changed plan quality: %v vs %v", costPruned, costAll)
	}
}

func TestJavacCompilerPath(t *testing.T) {
	cfg := codegen.DefaultConfig()
	cfg.Compiler = codegen.CompilerJavac
	cache := codegen.NewPlanCacheSized(true, 0)
	stats := codegen.NewStats()
	d, _ := rewrite.Apply(eqPatterns[0].build())
	d = codegen.Optimize(d, &cfg, cache, stats)
	env := eqPatterns[0].env()
	got, err := runtime.ExecuteDAG(d, env, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refDAG, _ := rewrite.Apply(eqPatterns[0].build())
	ref, _ := runtime.ExecuteDAG(refDAG, env, runtime.Options{})
	if !got["s"].EqualsApprox(ref["s"], 1e-9) {
		t.Fatal("javac path produced wrong operator")
	}
	if stats.CompileTime <= 0 {
		t.Fatal("compile time not recorded")
	}
}

func TestMemoStringNotation(t *testing.T) {
	cfg := codegen.DefaultConfig()
	d := mlogregDAG()
	memo := codegen.Explore(d.Roots(), &cfg)
	s := memo.String()
	// Fig. 5 notation: R(...) entries with -1 for materialized inputs.
	if !strings.Contains(s, "R(-1") && !strings.Contains(s, "R(10") {
		t.Fatalf("memo rendering missing Row entries:\n%s", s)
	}
	if !strings.Contains(s, "ba(+*)") {
		t.Fatalf("memo rendering missing operator names:\n%s", s)
	}
}

func TestFusedModeMMChainPattern(t *testing.T) {
	// The hand-coded mmchain operator applies to t(X)%*%(X%*%v) but not to
	// the matrix-matrix variant (paper Fig. 8g discussion).
	cfg := codegen.DefaultConfig()
	cfg.Mode = codegen.ModeFused
	dv, _ := rewrite.Apply(eqPatterns[3].build()) // mvchain
	dv = codegen.Optimize(dv, &cfg, codegen.NewPlanCacheSized(true, 0), codegen.NewStats())
	foundRow := false
	for _, h := range hop.TopoOrder(dv.Roots()) {
		if h.Kind == hop.OpSpoof && h.SpoofType == "Row" {
			foundRow = true
		}
	}
	if !foundRow {
		t.Fatal("Fused mode must apply the hand-coded mmchain operator")
	}
	// Matrix-matrix chain: no hand-coded operator.
	d := hop.NewDAG()
	x := d.Read("X", 400, 30, -1)
	v := d.Read("V", 30, 2, -1)
	d.Output("W", d.MatMult(d.Transpose(x), d.MatMult(x, v)))
	dd, _ := rewrite.Apply(d)
	dd = codegen.Optimize(dd, &cfg, codegen.NewPlanCacheSized(true, 0), codegen.NewStats())
	for _, h := range hop.TopoOrder(dd.Roots()) {
		if h.Kind == hop.OpSpoof {
			t.Fatal("Fused mode must not cover the matrix-matrix chain")
		}
	}
}

func TestCumsumRowPattern(t *testing.T) {
	// t(cumsum(t(X))) is recognized as one Row-template operator (§3.2's
	// rare exception) and computes row-wise running sums.
	build := func() *hop.DAG {
		d := hop.NewDAG()
		x := d.Read("X", 5000, 64, -1)
		d.Output("Y", d.Transpose(d.CumsumOp(d.Transpose(x))))
		return d
	}
	env := runtime.Env{"X": matrix.Rand(5000, 64, 1, -1, 1, 99)}
	refDAG, _ := rewrite.Apply(build())
	ref, err := runtime.ExecuteDAG(refDAG, env, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := codegen.DefaultConfig()
	d, _ := rewrite.Apply(build())
	d = codegen.Optimize(d, &cfg, codegen.NewPlanCacheSized(true, 0), codegen.NewStats())
	foundRow := false
	for _, h := range hop.TopoOrder(d.Roots()) {
		if h.Kind == hop.OpSpoof && h.SpoofType == "Row" {
			foundRow = true
		}
	}
	if !foundRow {
		t.Fatalf("t(cumsum(t(X))) not fused:\n%s", hop.Explain(d.Roots()))
	}
	got, err := runtime.ExecuteDAG(d, env, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got["Y"].EqualsApprox(ref["Y"], 1e-9) {
		t.Fatal("fused row-wise cumsum differs from reference")
	}
}
