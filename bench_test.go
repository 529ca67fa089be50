package sysml

// One testing.B benchmark per table and figure of the paper's evaluation
// (§5). Each benchmark runs the experiment's core workload at a fixed
// laptop-friendly size with sub-benchmarks per system variant; the full
// parameter sweeps (all sizes, sparsities, datasets) are produced by
// cmd/fusebench, which prints the complete tables.

import (
	"io"
	"testing"

	"sysml/internal/algos"
	"sysml/internal/bench"
	"sysml/internal/codegen"
	"sysml/internal/compress"
	"sysml/internal/cplan"
	"sysml/internal/data"
	"sysml/internal/dist"
	"sysml/internal/dml"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/runtime"
)

// benchScript runs a script repeatedly on a warm session per mode.
func benchScript(b *testing.B, script string, inputs map[string]*matrix.Matrix,
	scalars map[string]float64) {
	for _, mode := range bench.Modes {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := codegen.DefaultConfig()
			cfg.Mode = mode
			s := dml.NewSession(cfg)
			s.Out = io.Discard
			for n, m := range inputs {
				s.Bind(n, m)
			}
			for n, v := range scalars {
				s.BindScalar(n, v)
			}
			if err := s.Run(script); err != nil { // warmup + correctness
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Run(script); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8Cell: sum(X*Y*Z) dense (Fig. 8a).
func BenchmarkFig8Cell(b *testing.B) {
	benchScript(b, `s = sum(X * Y * Z)`, map[string]*matrix.Matrix{
		"X": matrix.Rand(50000, 100, 1, -1, 1, 1),
		"Y": matrix.Rand(50000, 100, 1, -1, 1, 2),
		"Z": matrix.Rand(50000, 100, 1, -1, 1, 3),
	}, nil)
}

// BenchmarkFig8CellSparse: sum(X*Y*Z) sparse X (Fig. 8b).
func BenchmarkFig8CellSparse(b *testing.B) {
	benchScript(b, `s = sum(X * Y * Z)`, map[string]*matrix.Matrix{
		"X": matrix.Rand(50000, 100, 0.1, -1, 1, 1),
		"Y": matrix.Rand(50000, 100, 1, -1, 1, 2),
		"Z": matrix.Rand(50000, 100, 1, -1, 1, 3),
	}, nil)
}

// BenchmarkFig8MAgg: sum(X*Y), sum(X*Z) shared input (Fig. 8c).
func BenchmarkFig8MAgg(b *testing.B) {
	benchScript(b, "s1 = sum(X * Y)\ns2 = sum(X * Z)", map[string]*matrix.Matrix{
		"X": matrix.Rand(50000, 100, 1, -1, 1, 4),
		"Y": matrix.Rand(50000, 100, 1, -1, 1, 5),
		"Z": matrix.Rand(50000, 100, 1, -1, 1, 6),
	}, nil)
}

// BenchmarkFig8Row: t(X)%*%(X%*%v) (Fig. 8e).
func BenchmarkFig8Row(b *testing.B) {
	benchScript(b, `w = t(X) %*% (X %*% v)`, map[string]*matrix.Matrix{
		"X": matrix.Rand(50000, 100, 1, -1, 1, 7),
		"v": matrix.Rand(100, 1, 1, -1, 1, 8),
	}, nil)
}

// BenchmarkFig8RowMM: t(X)%*%(X%*%V) (Fig. 8g).
func BenchmarkFig8RowMM(b *testing.B) {
	benchScript(b, `W = t(X) %*% (X %*% V)`, map[string]*matrix.Matrix{
		"X": matrix.Rand(50000, 100, 1, -1, 1, 9),
		"V": matrix.Rand(100, 2, 1, -1, 1, 10),
	}, nil)
}

// BenchmarkFig8Outer: sum(X*log(UV'+eps)) at sparsity 0.01 (Fig. 8h).
func BenchmarkFig8Outer(b *testing.B) {
	n, rank := 2000, 100
	benchScript(b, `s = sum(X * log(U %*% t(V) + 1e-15))`, map[string]*matrix.Matrix{
		"X": matrix.Rand(n, n, 0.01, 1, 2, 11),
		"U": matrix.Rand(n, rank, 1, 0.1, 1, 12),
		"V": matrix.Rand(n, rank, 1, 0.1, 1, 13),
	}, nil)
}

// BenchmarkFig9CLA: sum(X^2) over ULA vs CLA (Fig. 9).
func BenchmarkFig9CLA(b *testing.B) {
	x := data.AirlineLike(50000, 21)
	plan := &cplan.Plan{
		Type: cplan.TemplateCell, Cell: cplan.CellFullAgg, AggOp: matrix.AggSum,
		Root:       cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Main(0)),
		SparseSafe: true,
	}
	op := cplan.Compile(plan, "TMP_SumSq")
	cm := compress.Compress(x, compress.DefaultOptions())
	b.Run("ULA/Base", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = matrix.Sum(matrix.Binary(matrix.BinMul, x, x))
		}
	})
	b.Run("ULA/Gen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = runtime.ExecCellwise(op, x, nil).Scalar()
		}
	})
	b.Run("CLA/Base", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = cm.SumSq()
		}
	})
	b.Run("CLA/Gen", func(b *testing.B) {
		// The product's dictionary binding over the attached compressed form.
		compress.Attach(x, cm)
		defer compress.Drop(x)
		h := &hop.Hop{Kind: hop.OpSpoof, Spoof: op}
		for i := 0; i < b.N; i++ {
			if _, _, err := runtime.ExecSpoof(matrix.Ctx{}, h, []*matrix.Matrix{x}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig10Footprint: vector primitives vs inlined genexec at 48 row
// operations (past the JIT-threshold analog; Fig. 10).
func BenchmarkFig10Footprint(b *testing.B) {
	rows, cols, n := 20000, 100, 48
	x := matrix.Rand(rows, cols, 1, 1, 2, 31)
	rs := matrix.Agg(matrix.AggSum, matrix.DirRow, x)
	chain := cplan.Binary(matrix.BinDiv, cplan.Main(cols), cplan.Side(0, cplan.AccessCol, 0))
	cell := cplan.Binary(matrix.BinDiv, cplan.Main(0), cplan.Side(0, cplan.AccessCol, 0))
	for i := 1; i <= n; i++ {
		chain = cplan.Binary(matrix.BinMul, chain, cplan.Lit(1+1/float64(i)))
		cell = cplan.Binary(matrix.BinMul, cell, cplan.Lit(1+1/float64(i)))
	}
	rowOp := cplan.Compile(&cplan.Plan{Type: cplan.TemplateRow, Row: cplan.RowFullAgg,
		Root: cplan.Agg(matrix.AggSum, chain), MainWidth: cols}, "T")
	inlined, interp := bench.PerCellSum(cell, false), bench.PerCellSum(cell, true)
	b.Run("Gen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = runtime.ExecRowwise(rowOp, x, []*matrix.Matrix{rs})
		}
	})
	b.Run("GenInlined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = inlined(x, []*matrix.Matrix{rs})
		}
	})
	b.Run("GenInlinedNoJIT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = interp(x, []*matrix.Matrix{rs})
		}
	})
}

// BenchmarkFig11Compile: operator compilation via the janino-analog and
// javac-analog paths (Fig. 11).
func BenchmarkFig11Compile(b *testing.B) {
	plan := &cplan.Plan{
		Type: cplan.TemplateCell, Cell: cplan.CellFullAgg, AggOp: matrix.AggSum,
		Root: cplan.Binary(matrix.BinMul,
			cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Side(0, cplan.AccessCell, 0)),
			cplan.Side(1, cplan.AccessCell, 0)),
	}
	b.Run("Janino", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = cplan.Compile(plan, "TMP")
		}
	})
	b.Run("Javac", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cplan.CompileSlow(plan, "TMP"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig12Enumeration: MPSkipEnum over the MLogreg inner DAG with
// and without pruning (Fig. 12).
func BenchmarkFig12Enumeration(b *testing.B) {
	build := func() map[string]*matrix.Matrix {
		return map[string]*matrix.Matrix{
			"X":     data.Dense(2000, 30, 1),
			"Yfull": data.MultiClassIndicator(data.Dense(2000, 30, 1), 3, 2),
		}
	}
	for _, pruned := range []bool{false, true} {
		name := "NoPrune"
		if pruned {
			name = "Pruned"
		}
		b.Run(name, func(b *testing.B) {
			inputs := build()
			for i := 0; i < b.N; i++ {
				cfg := codegen.DefaultConfig()
				cfg.EnableCostPrune = pruned
				cfg.EnableStructPrune = pruned
				cfg.MaxPointsExact = 14
				if _, err := algos.MLogreg.Run(cfg, inputs,
					map[string]float64{"maxiter": 1, "inneriter": 2, "k": 3}, nil, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4: L2SVM end-to-end per mode (Table 4 representative row).
func BenchmarkTable4(b *testing.B) {
	x := data.Dense(50000, 10, 31)
	inputs := map[string]*matrix.Matrix{"X": x, "Y": data.BinaryLabels(x, 0.05, 41)}
	for _, mode := range bench.Modes {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := codegen.DefaultConfig()
				cfg.Mode = mode
				if _, err := algos.L2SVM.Run(cfg, inputs,
					map[string]float64{"maxiter": 5}, nil, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig13Hybrid: KMeans with k=16 centroids per mode (Fig. 13b
// representative point).
func BenchmarkFig13Hybrid(b *testing.B) {
	x := data.Dense(20000, 100, 51)
	inputs := map[string]*matrix.Matrix{"X": x, "C0": matrix.Rand(16, 100, 1, -1, 1, 53)}
	for _, mode := range bench.Modes {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := codegen.DefaultConfig()
				cfg.Mode = mode
				if _, err := algos.KMeans.Run(cfg, inputs,
					map[string]float64{"maxiter": 3, "k": 16}, nil, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable5: ALS-CG end-to-end per mode (Table 5 representative row;
// the Outer-template sparsity exploitation dominates).
func BenchmarkTable5(b *testing.B) {
	n := 1500
	inputs := map[string]*matrix.Matrix{
		"X":  matrix.Unary(matrix.UnAbs, data.Sparse(n, n, 0.01, 63)),
		"U0": matrix.Rand(n, 20, 1, 0.01, 0.1, 61),
		"V0": matrix.Rand(n, 20, 1, 0.01, 0.1, 62),
	}
	for _, mode := range bench.Modes {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := codegen.DefaultConfig()
				cfg.Mode = mode
				if _, err := algos.ALSCG.Run(cfg, inputs,
					map[string]float64{"maxiter": 1, "rank": 5}, nil, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable6: distributed L2SVM per mode on the simulated cluster
// (Table 6 representative row; reported ns include wall time only — the
// fusebench table adds the simulated network time).
func BenchmarkTable6(b *testing.B) {
	x := data.Dense(100000, 100, 71)
	inputs := map[string]*matrix.Matrix{"X": x, "Y": data.BinaryLabels(x, 0.05, 81)}
	for _, mode := range bench.Modes {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := codegen.DefaultConfig()
				cfg.Mode = mode
				cfg.Exec.MemBudgetBytes = x.SizeBytes() / 2
				cl := dist.NewCluster()
				if _, err := algos.L2SVM.Run(cfg, inputs,
					map[string]float64{"maxiter": 3}, cl, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
