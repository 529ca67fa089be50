package dist

import (
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/rewrite"
	rt "sysml/internal/runtime"
)

// buildAndOptimize produces an optimized DAG whose operators run
// distributed (tiny memory budget forces ExecDist).
func buildAndOptimize(t *testing.T, mode codegen.Mode, build func() *hop.DAG) *hop.DAG {
	t.Helper()
	cfg := codegen.DefaultConfig()
	cfg.Mode = mode
	cfg.Exec.MemBudgetBytes = 1 // force distributed
	cfg.Exec.Blocksize = 64
	d, _ := rewrite.Apply(build())
	return codegen.Optimize(d, &cfg, codegen.NewPlanCache(true), codegen.NewStats())
}

func distCluster() *Cluster {
	c := NewCluster()
	c.Blocksize = 64
	return c
}

func TestDistributedMatchesLocal(t *testing.T) {
	patterns := []struct {
		name  string
		build func() *hop.DAG
		env   rt.Env
	}{
		{
			name: "cell-agg",
			build: func() *hop.DAG {
				d := hop.NewDAG()
				x := d.Read("X", 500, 20, -1)
				y := d.Read("Y", 500, 20, -1)
				d.Output("s", d.Sum(d.Binary(matrix.BinMul, x, y)))
				return d
			},
			env: rt.Env{
				"X": matrix.Rand(500, 20, 1, -1, 1, 1),
				"Y": matrix.Rand(500, 20, 1, -1, 1, 2),
			},
		},
		{
			name: "mvchain",
			build: func() *hop.DAG {
				d := hop.NewDAG()
				x := d.Read("X", 600, 30, -1)
				v := d.Read("v", 30, 1, -1)
				d.Output("w", d.MatMult(d.Transpose(x), d.MatMult(x, v)))
				return d
			},
			env: rt.Env{
				"X": matrix.Rand(600, 30, 1, -1, 1, 3),
				"v": matrix.Rand(30, 1, 1, -1, 1, 4),
			},
		},
		{
			name: "binary-broadcast",
			build: func() *hop.DAG {
				d := hop.NewDAG()
				x := d.Read("X", 400, 25, -1)
				d.Output("N", d.Binary(matrix.BinDiv, x, d.RowSums(x)))
				return d
			},
			env: rt.Env{"X": matrix.Rand(400, 25, 1, 1, 2, 5)},
		},
		{
			name: "outer-right",
			build: func() *hop.DAG {
				d := hop.NewDAG()
				x := d.Read("X", 300, 200, 3000)
				u := d.Read("U", 300, 10, -1)
				v := d.Read("V", 200, 10, -1)
				mask := d.Binary(matrix.BinNeq, x, d.Lit(0))
				o := d.MatMult(d.Binary(matrix.BinMul, mask, d.MatMult(u, d.Transpose(v))), v)
				d.Output("O", o)
				return d
			},
			env: rt.Env{
				"X": matrix.Rand(300, 200, 0.05, 1, 2, 6),
				"U": matrix.Rand(300, 10, 1, -1, 1, 7),
				"V": matrix.Rand(200, 10, 1, -1, 1, 8),
			},
		},
		{
			// The Outer operator with a matrix result: row panels are
			// concatenated, not added up like the aggregating variants'.
			name: "outer-noagg",
			build: func() *hop.DAG {
				d := hop.NewDAG()
				x := d.Read("X", 300, 200, 3000)
				uv := d.MatMult(d.Read("U", 300, 10, -1), d.Transpose(d.Read("V", 200, 10, -1)))
				d.Output("O", d.Binary(matrix.BinMul, d.Binary(matrix.BinNeq, x, d.Lit(0)), uv))
				return d
			},
			env: rt.Env{
				"X": matrix.Rand(300, 200, 0.05, 1, 2, 6),
				"U": matrix.Rand(300, 10, 1, -1, 1, 7),
				"V": matrix.Rand(200, 10, 1, -1, 1, 8),
			},
		},
	}
	for _, pat := range patterns {
		refDAG, _ := rewrite.Apply(pat.build())
		ref, err := rt.ExecuteDAG(refDAG, pat.env, rt.Options{})
		if err != nil {
			t.Fatalf("%s: ref: %v", pat.name, err)
		}
		for _, mode := range []codegen.Mode{codegen.ModeBase, codegen.ModeGen, codegen.ModeGenFA} {
			d := buildAndOptimize(t, mode, pat.build)
			cl := distCluster()
			got, err := rt.ExecuteDAG(d, pat.env, rt.Options{Dist: cl})
			if err != nil {
				t.Fatalf("%s/%v: %v", pat.name, mode, err)
			}
			for name, want := range ref {
				if !got[name].EqualsApprox(want, 1e-7) {
					t.Errorf("%s/%v: output %q differs", pat.name, mode, name)
				}
			}
		}
	}
}

func TestBroadcastAccounting(t *testing.T) {
	// A distributed matmult with a broadcast right side must record
	// broadcast bytes proportional to executor count.
	d := hop.NewDAG()
	x := d.Read("X", 1000, 20, -1)
	v := d.Read("v", 20, 1, -1)
	d.Output("q", d.MatMult(x, v))
	hop.AssignExecTypes(d.Roots(), hop.ExecConfig{MemBudgetBytes: 1, Blocksize: 64})
	cl := distCluster()
	env := rt.Env{"X": matrix.Rand(1000, 20, 1, -1, 1, 9), "v": matrix.Rand(20, 1, 1, -1, 1, 10)}
	if _, err := rt.ExecuteDAG(d, env, rt.Options{Dist: cl}); err != nil {
		t.Fatal(err)
	}
	want := int64(20*8) * int64(cl.NumExecutors)
	if cl.BytesBroadcast() != want {
		t.Fatalf("broadcast bytes = %d, want %d", cl.BytesBroadcast(), want)
	}
	if cl.NetTime() <= 0 {
		t.Fatal("no simulated network time recorded")
	}
	cl.Reset()
	if cl.BytesBroadcast() != 0 || cl.NetTime() != 0 {
		t.Fatal("reset failed")
	}
}

func TestShuffleAccountingOnAggregate(t *testing.T) {
	d := hop.NewDAG()
	x := d.Read("X", 1000, 20, -1)
	d.Output("s", d.ColSums(x))
	hop.AssignExecTypes(d.Roots(), hop.ExecConfig{MemBudgetBytes: 1, Blocksize: 64})
	cl := distCluster()
	env := rt.Env{"X": matrix.Rand(1000, 20, 1, -1, 1, 11)}
	out, err := rt.ExecuteDAG(d, env, rt.Options{Dist: cl})
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Agg(matrix.AggSum, matrix.DirCol, env["X"])
	if !out["s"].EqualsApprox(want, 1e-9) {
		t.Fatal("distributed colSums mismatch")
	}
	if cl.BytesShuffled() == 0 {
		t.Fatal("no shuffle bytes recorded for partial aggregates")
	}
}

func TestRowTemplateBlocksizeConstraint(t *testing.T) {
	// Distributed Row templates over wide rows violate the blocksize
	// constraint and must not be selected.
	build := func() *hop.DAG {
		d := hop.NewDAG()
		x := d.Read("X", 500, 128, -1) // wider than blocksize 64
		v := d.Read("v", 128, 1, -1)
		d.Output("w", d.MatMult(d.Transpose(x), d.MatMult(x, v)))
		return d
	}
	cfg := codegen.DefaultConfig()
	cfg.Exec.MemBudgetBytes = 1
	cfg.Exec.Blocksize = 64
	d, _ := rewrite.Apply(build())
	d = codegen.Optimize(d, &cfg, codegen.NewPlanCache(true), codegen.NewStats())
	for _, h := range hop.TopoOrder(d.Roots()) {
		if h.Kind == hop.OpSpoof && h.SpoofType == "Row" {
			t.Fatal("Row template selected despite blocksize violation")
		}
	}
	// The same plan compiles to a Row operator locally.
	cfgLocal := codegen.DefaultConfig()
	dl, _ := rewrite.Apply(build())
	dl = codegen.Optimize(dl, &cfgLocal, codegen.NewPlanCache(true), codegen.NewStats())
	found := false
	for _, h := range hop.TopoOrder(dl.Roots()) {
		if h.Kind == hop.OpSpoof && h.SpoofType == "Row" {
			found = true
		}
	}
	if !found {
		t.Fatal("local Row template missing")
	}
}
