package dml

import (
	"context"
	"fmt"
	"math"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/obs"
	"sysml/internal/par"
)

// A block that has its plan is found by replaying what its compile learned
// from the symbol table (access.go). The scripts below change what a block
// would learn from one execution to the next; a session that reuses block
// plans must then compute, bit for bit, what a session that compiles every
// execution afresh computes — a plan taken under observations that no
// longer hold shows as a value, or as a shape error.

// lookupCase is one script with the bindings it runs under.
type lookupCase struct {
	name    string
	script  string
	bind    func(s *Session, x *matrix.Matrix)
	outputs []string
	// plans and hits are how many blocks a reusing session optimizes and
	// finds planned (over a dense X, without the time trigger).
	plans, hits int64
}

var lookupCases = []lookupCase{
	{
		// w is all zeros in the first iteration and dense from then on: its
		// sparsity bucket moves once (with the counter's), the loop body has
		// two plans, the block before the loop one.
		name: "zero then dense", plans: 3, hits: 2,
		script: `
			w = matrix(0, rows=ncol(X), cols=1)
			i = 0
			while (i < 4) {
				g = t(X) %*% (X %*% w - y)
				w = w - 0.001 * g
				obj = sum((X %*% w - y) ^ 2)
				i = i + 1
			}`,
		bind: func(s *Session, x *matrix.Matrix) {
			s.Bind("X", x)
			s.Bind("y", matrix.Rand(x.Rows, 1, 1, -1, 1, 41))
		},
		outputs: []string{"w", "obj"},
	},
	{
		// Mini-batches of 64 rows over 300: the full ones share a plan with
		// their offsets as parameters (two: acc and s are zero in the first),
		// the last has 44 rows and its own; one plan computes the bounds.
		name: "ragged last batch", plans: 5, hits: 6,
		script: `
			n = nrow(X)
			acc = matrix(0, rows=1, cols=ncol(X))
			s = 0
			nb = ceil(n / bs)
			for (b in 1:nb) {
				beg = (b - 1) * bs + 1
				end = min(b * bs, n)
				if (end > 0) {
					Xb = X[beg:end, ]
					acc = acc + colSums(Xb * Xb)
					s = s + sum(Xb)
				}
			}`,
		bind: func(s *Session, x *matrix.Matrix) {
			s.Bind("X", x)
			s.BindScalar("bs", 64)
		},
		outputs: []string{"acc", "s"},
	},
	{
		// A scalar of the environment sizes a generated matrix: every value of
		// k is another DAG, and the second pass over the same values finds
		// the plans of the first (but for k = 1, planned with total at zero).
		name: "scalar sizes a matrix", plans: 6, hits: 3,
		script: `
			total = 0
			for (pass in 1:2) {
				k = 1
				while (k <= 3) {
					Z = matrix(1.5, rows=k, cols=2) + seq(1, k)
					total = total + sum(Z) * k
					k = k + 1
				}
			}`,
		bind:    func(s *Session, x *matrix.Matrix) {},
		outputs: []string{"total", "Z"},
	},
	{
		// v is a matrix in the first iteration and a scalar afterwards: as a
		// matrix it is no constant and rand falls back to its default seed, as
		// a scalar it is the seed, and every seed is another DAG.
		name: "matrix rebound to scalar", plans: 4, hits: 0,
		script: `
			v = X
			acc = 0
			i = 0
			while (i < 3) {
				R = rand(rows=3, cols=2, seed=v)
				r = sum(v * 2) / (i + 1)
				acc = acc + sum(R) + r
				v = round(r) + i
				i = i + 1
			}`,
		bind:    func(s *Session, x *matrix.Matrix) { s.Bind("X", x) },
		outputs: []string{"acc", "R", "v"},
	},
	{
		// X is bound with an estimate that claims it dense; the sparsity
		// trigger drops the estimate after the first execution, and the block
		// is compiled again under the scanned count.
		name: "estimate dropped", plans: 3, hits: 1,
		script: `
			acc = 0
			i = 0
			while (i < 3) {
				acc = acc + sum(X * log(U %*% t(V) + 1e-15))
				i = i + 1
			}`,
		bind: func(s *Session, x *matrix.Matrix) {
			s.BindWithNnz("X", x, int64(x.Rows*x.Cols))
			s.Bind("U", matrix.Rand(x.Rows, 4, 1, 0.1, 1, 42))
			s.Bind("V", matrix.Rand(x.Cols, 4, 1, 0.1, 1, 43))
		},
		outputs: []string{"acc"},
	},
}

func TestReusedPlansMatchFreshCompiles(t *testing.T) {
	inputs := []struct {
		name string
		x    func() *matrix.Matrix
	}{
		{"dense", func() *matrix.Matrix { return matrix.Rand(300, 12, 1, -1, 1, 31) }},
		{"sparse", func() *matrix.Matrix { return matrix.Rand(300, 12, 0.05, 1, 2, 32) }},
		{"compressed", func() *matrix.Matrix { return codesTable(700, 12, 33) }}, // 67 KB: at least compressMinBytes
	}
	for _, tc := range lookupCases {
		for _, in := range inputs {
			for _, mode := range []codegen.Mode{codegen.ModeGen, codegen.ModeBase} {
				t.Run(fmt.Sprintf("%s/%s/%v", tc.name, in.name, mode), func(t *testing.T) {
					run := func(reuse bool) *Session {
						cfg := codegen.DefaultConfig()
						cfg.Mode = mode
						cfg.ReuseBlockPlans = reuse
						cfg.Reopt.MinSec = math.Inf(1)
						s := newTestSessionCfg(cfg)
						s.Par = par.NewPool(1) // one worker: reductions add up in one order
						tc.bind(s, in.x())
						if err := s.Run(tc.script); err != nil {
							t.Fatalf("reuse=%v: %v", reuse, err)
						}
						return s
					}
					reuse, fresh := run(true), run(false)
					for _, name := range tc.outputs {
						got, err := reuse.Get(name)
						if err != nil {
							t.Fatal(err)
						}
						want, _ := fresh.Get(name)
						if !got.EqualsApprox(want, 0) {
							t.Errorf("%s under reused plans differs from fresh compiles:\n%v\n%v", name, got, want)
						}
					}
					if fresh.BlockCacheHits != 0 || reuse.Blocks+reuse.BlockCacheHits != fresh.Blocks {
						t.Errorf("%d blocks optimized and %d found planned with reuse on, %d and %d with it off",
							reuse.Blocks, reuse.BlockCacheHits, fresh.Blocks, fresh.BlockCacheHits)
					}
				})
			}
		}
	}
}

// TestLookupDistinguishesObservations counts the plans of the same scripts:
// one per distinct set of observations, no more (the counts are the parent
// commit's, which compared serialized DAGs).
func TestLookupDistinguishesObservations(t *testing.T) {
	for _, tc := range lookupCases {
		cfg := codegen.DefaultConfig()
		cfg.Reopt.MinSec = math.Inf(1)
		s := newTestSessionCfg(cfg)
		tc.bind(s, matrix.Rand(300, 12, 1, -1, 1, 31))
		if err := s.Run(tc.script); err != nil {
			t.Fatal(err)
		}
		if s.Blocks != tc.plans || s.BlockCacheHits != tc.hits {
			t.Errorf("%s: %d blocks optimized and %d found planned, want %d and %d",
				tc.name, s.Blocks, s.BlockCacheHits, tc.plans, tc.hits)
		}
	}
}

// TestPlannedBlockBuildsNothing: a warm iteration of MLogreg's inner block,
// and of a loop predicate, builds no HOP DAG and allocates what its
// operators allocate. The parent commit built two DAGs per block execution
// and one per predicate, at 643 and 92 allocations.
func TestPlannedBlockBuildsNothing(t *testing.T) {
	s, stmts := warmInnerBlock(t)
	cond, err := Parse("while (rsold > 1e300 & lambda < eps) { x = 1 }")
	if err != nil {
		t.Fatal(err)
	}
	pred := cond.Stmts[0].(*WhileStmt).Cond
	if _, err := s.evalScalar(context.Background(), obs.Span{}, pred); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		allocs float64
		run    func() error
	}{
		{"block", 320, func() error { return s.exec(context.Background(), obs.Span{}, stmts) }},
		{"predicate", 24, func() error {
			_, err := s.evalScalar(context.Background(), obs.Span{}, pred)
			return err
		}},
	} {
		built := hop.DAGsBuilt()
		blocks := s.Blocks
		allocs := testing.AllocsPerRun(20, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		if n := hop.DAGsBuilt() - built; n != 0 || s.Blocks != blocks {
			t.Errorf("%s: %d DAGs built and %d blocks optimized over 21 planned executions", tc.name, n, s.Blocks-blocks)
		}
		if allocs > tc.allocs {
			t.Errorf("%s: %.0f allocations per planned execution, want at most %.0f", tc.name, allocs, tc.allocs)
		}
		t.Logf("%s: %.0f allocations per planned execution", tc.name, allocs)
	}
}

// TestSameScriptTextFindsItsPlans: block identity survives a re-parse. The
// same text run again on one session — also after Reset, with the inputs
// bound again, as a pooled serving session sees it — optimizes nothing and
// builds no DAG; another text with the same statements is another script.
func TestSameScriptTextFindsItsPlans(t *testing.T) {
	cfg := codegen.DefaultConfig()
	cfg.Reopt.MinSec = math.Inf(1)
	s := newTestSessionCfg(cfg)
	x, y := matrix.Rand(200, 8, 1, -1, 1, 51), matrix.Rand(200, 1, 1, -1, 1, 52)
	script := `
		w = matrix(0.5, rows=ncol(X), cols=1)
		i = 1
		while (i <= 3) {
			w = w - 0.01 * (t(X) %*% (X %*% w - y))
			i = i + 1
		}
		print("w: " + sum(w))`
	run := func() (blocks, dags int64) {
		t.Helper()
		s.Bind("X", x)
		s.Bind("y", y)
		blocks, dags = s.Blocks, hop.DAGsBuilt()
		if err := s.Run(script); err != nil {
			t.Fatal(err)
		}
		return s.Blocks - blocks, hop.DAGsBuilt() - dags
	}
	if blocks, _ := run(); blocks == 0 {
		t.Fatal("first run optimized nothing")
	}
	first, _ := s.Scalar("i")
	if blocks, dags := run(); blocks != 0 || dags != 0 {
		t.Errorf("second run of the same text optimized %d blocks and built %d DAGs", blocks, dags)
	}
	s.Reset()
	if blocks, dags := run(); blocks != 0 || dags != 0 {
		t.Errorf("run after Reset optimized %d blocks and built %d DAGs", blocks, dags)
	}
	if again, _ := s.Scalar("i"); again != first {
		t.Errorf("i = %v after the third run, %v after the first", again, first)
	}
	script += "\n"
	if blocks, _ := run(); blocks == 0 {
		t.Error("another script text found the plans of the first")
	}
}

// TestSparsityClassMatchesHop: the lookup's view of a read's non-zero count
// is the one the block key used to take from the read's hop.
func TestSparsityClassMatchesHop(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {40, 1}, {1, 40}, {40, 25}, {0, 5}} {
		rows, cols := shape[0], shape[1]
		for nnz := int64(-1); nnz <= int64(rows*cols)+3; nnz++ {
			h := hop.NewDAG().Read("x", int64(rows), int64(cols), nnz)
			want := fmt.Sprintf("%v %.1f", h.IsSparse(), h.Sparsity())
			sparse, bucket := sparsityClass(rows, cols, nnz)
			if got := fmt.Sprintf("%v %d.%d", sparse, bucket/10, bucket%10); got != want {
				t.Fatalf("%dx%d nnz %d: class %s, hop %s", rows, cols, nnz, got, want)
			}
		}
	}
}
