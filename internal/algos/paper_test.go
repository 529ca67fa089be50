package algos

import (
	"io"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/data"
	"sysml/internal/dist"
	"sysml/internal/dml"
	"sysml/internal/matrix"
	"sysml/internal/par"
)

// The paper's claims as counted tests: each row is a count the system keeps
// exactly, so it repeats from run to run and at any worker cap, and a change
// that breaks a claim fails a named test here.

// TestFig11PlanCacheCompilesEachOperatorOnce (Fig 11, Table 3): under Gen,
// the six algorithms at test sizes construct more operators than they
// compile; the rest are plan-cache hits, every miss compiles one operator.
// The counts are pinned per algorithm and equal at caps 1 and 2.
func TestFig11PlanCacheCompilesEachOperatorOnce(t *testing.T) {
	want := map[string][2]int64{ // operators compiled, plan-cache hits
		"L2SVM": {11, 28}, "MLogreg": {14, 16}, "GLM": {10, 16},
		"KMeans": {7, 1}, "ALS-CG": {11, 12}, "AutoEncoder": {14, 3},
	}
	for _, tc := range testSizes {
		in := tc.a.Gen(tc.rows, tc.cols, 42)
		for _, w := range []int{1, 2} {
			s := runOnPool(t, tc.a, codegen.DefaultConfig(), in, tc.ov, par.NewPool(w))
			snap := s.Metrics()
			compiled, hits := s.Stats.OperatorsCompiled, snap.Counter("plancache.hits")
			if got := [2]int64{compiled, hits}; got != want[tc.a.Name] {
				t.Errorf("%s at cap %d: compiled %d operators with %d plan-cache hits, want %v",
					tc.a.Name, w, compiled, hits, want[tc.a.Name])
			}
			if compiled != snap.Counter("plancache.misses") || compiled+hits != s.Stats.CPlansConstructed {
				t.Errorf("%s at cap %d: %d compiled, %d misses, %d hits, %d constructed", tc.a.Name, w,
					compiled, snap.Counter("plancache.misses"), hits, s.Stats.CPlansConstructed)
			}
		}
	}
}

// TestFig8GenReadsXOnce (Fig 8): the bytes the audit ledger counts read and
// written, in units of X, for the Fig 8 Cell, MAgg and Row operators over a
// dense 2000×100 X. Base reads X, or an X-sized intermediate, k times and
// writes every intermediate; Gen reads each input once and writes no
// X-sized intermediate. Equal at caps 1 and 2.
func TestFig8GenReadsXOnce(t *testing.T) {
	x := data.Dense(2000, 100, 1)
	in := map[string]*matrix.Matrix{"X": x, "Y": data.Dense(2000, 100, 2), "Z": data.Dense(2000, 100, 3),
		"v": matrix.Rand(100, 1, 1, 0, 1, 4)}
	for _, row := range []struct {
		fig, script string
		base, gen   [2]int64 // X-sized reads, X-sized writes
	}{
		{"Cell", "s = sum(X * Y * Z)", [2]int64{5, 2}, [2]int64{3, 0}},
		{"MAgg", "s1 = sum(X * Y)\ns2 = sum(X * Z)", [2]int64{6, 2}, [2]int64{3, 0}},
		{"Row", "w = t(X) %*% (X %*% v)", [2]int64{3, 1}, [2]int64{1, 0}},
	} {
		for _, mode := range []codegen.Mode{codegen.ModeBase, codegen.ModeGen} {
			for _, w := range []int{1, 2} {
				cfg := codegen.DefaultConfig()
				cfg.Mode = mode
				s := dml.NewSession(cfg)
				s.Par = par.NewPool(w)
				for name, m := range in {
					s.Bind(name, m)
				}
				if err := s.Run(row.script); err != nil {
					t.Fatal(err)
				}
				var read, written int64
				for _, g := range s.CostAudit().Groups {
					read += g.ActualInBytes
					written += g.ActualOutBytes
				}
				got := [2]int64{read / x.SizeBytes(), written / x.SizeBytes()}
				want := map[codegen.Mode][2]int64{codegen.ModeBase: row.base, codegen.ModeGen: row.gen}[mode]
				if got != want {
					t.Errorf("Fig 8 %s, %v at cap %d: %d X read, %d written (%d, %d bytes), want %v",
						row.fig, mode, w, got[0], got[1], read, written, want)
				}
			}
		}
	}
}

// TestTable6FuseAllBroadcastsMore (Table 6): MLogreg over an S-like sparse X
// with the operators over X forced onto the cluster (a memory budget of half
// of X, as bench.Table6Distributed sets it). Gen-FA eagerly fuses vector
// operations the driver could compute into the distributed operators, which
// broadcast their inputs to every executor: it broadcasts more bytes than Gen.
// The result and the bytes are the same at caps 1 and 2.
func TestTable6FuseAllBroadcastsMore(t *testing.T) {
	defer par.SetMaxWorkers(par.MaxWorkers())
	x := data.Sparse(2000, 500, 0.05, 72)
	in := map[string]*matrix.Matrix{"X": x, "Yfull": data.MultiClassIndicator(x, 3, 82)}
	ov := map[string]float64{"maxiter": 3, "inneriter": 3, "k": 3}
	var bcast [2]int64
	for m, mode := range []codegen.Mode{codegen.ModeGen, codegen.ModeGenFA} {
		var want *matrix.Matrix
		for _, w := range []int{1, 2} {
			par.SetMaxWorkers(w)
			cfg := codegen.DefaultConfig()
			cfg.Mode = mode
			cfg.Exec.MemBudgetBytes = x.SizeBytes() / 2
			cl := dist.NewCluster()
			cl.Blocksize = 1000
			s := dml.NewSession(cfg)
			s.Dist, s.Out, s.Par = cl, io.Discard, par.NewPool(w)
			for name, v := range in {
				s.Bind(name, v)
			}
			for _, vs := range []map[string]float64{MLogreg.Scalars, ov} {
				for name, v := range vs {
					s.BindScalar(name, v)
				}
			}
			if err := s.Run(MLogreg.Script); err != nil {
				t.Fatalf("%v at cap %d: %v", mode, w, err)
			}
			got, _ := s.Get("B")
			if w == 1 {
				want, bcast[m] = got, cl.BytesBroadcast()
				continue
			}
			if d := bitsDiffer(got, want); d != "" || cl.BytesBroadcast() != bcast[m] {
				t.Errorf("%v at cap 2: B differs from cap 1 (%s) or %d bytes broadcast, %d at cap 1", mode, d, cl.BytesBroadcast(), bcast[m])
			}
		}
	}
	if bcast[1] <= bcast[0] {
		t.Errorf("Gen-FA broadcasts %d bytes, Gen %d", bcast[1], bcast[0])
	}
	t.Logf("bytes broadcast: Gen %d, Gen-FA %d", bcast[0], bcast[1])
}
