package bench

import (
	"fmt"
	"io"
	"runtime"

	"sysml/internal/codegen"
	"sysml/internal/dml"
	"sysml/internal/matrix"
	"sysml/internal/par"
	"sysml/internal/vector"
)

// Kernel-gate thresholds.
const (
	// tsmmMinSpeedup: TSMM with 8 workers must beat the retained pre-overhaul
	// sequential kernel by at least this factor (from rank-4 register
	// blocking plus parallel partial triangles).
	tsmmMinSpeedup = 2.0

	// allocMinReductionPct: the pooled executor must cut allocated bytes on
	// the cellwise microbench by at least this much.
	allocMinReductionPct = 50.0

	// mmMaxRegressionPct: the blocked dense matmult may not regress the
	// single-worker case by more than this vs the pre-overhaul row-at-a-time
	// kernel.
	mmMaxRegressionPct = 2.0

	// asmMinSpeedup: at asmGateN elements each vector primitive must beat
	// its portable Go loop by this factor. The assembly kernels measure 3.5x
	// to 6x there; a dispatch that silently fell back to Go measures 1x.
	// (A host without AVX2+FMA runs the Go loops by design and fails this
	// gate: the gates describe the CI host.)
	asmMinSpeedup = 2.0
	asmGateN      = 64
)

// asmChecks times the three primitives the profile leans on at n = 10, 64 and
// 784 (the feature counts of the syn, autoencoder-hidden and Mnist inputs),
// gating n = 64 and reporting the others in its detail, and one kernel per
// family of the narrow Row bodies at a tile's shape (vector.TileTwins, N =
// cells per call, with the GB/s the primitive moves): vector's own portable
// loop against its exported, dispatching function, in ns per call.
func asmChecks(reps int) []Check {
	perCall := func(tw vector.KernelTwin) (goNS, asmNS float64) {
		calls := 2000000/tw.Flops + 1
		loop := func(fn func()) func() {
			return func() {
				for i := 0; i < calls; i++ {
					fn()
				}
			}
		}
		d := interleavedMin(reps, loop(tw.Go), loop(tw.Export))
		return float64(d[0].Nanoseconds()) / float64(calls), float64(d[1].Nanoseconds()) / float64(calls)
	}
	sizes := []int{asmGateN, 10, 784}
	twins := make([][]vector.KernelTwin, len(sizes))
	for i, n := range sizes {
		twins[i] = vector.KernelTwins(n)
	}
	var checks []Check
	for k, tw := range twins[0] {
		goNS, asmNS := perCall(tw)
		c := ratio("assembly primitives", goNS, asmNS, asmMinSpeedup, "ns",
			fmt.Sprintf("%s n=%d, Go loop vs asm: ", tw.Name, asmGateN))
		for i, n := range sizes[1:] {
			g, a := perCall(twins[i+1][k])
			c.Detail += fmt.Sprintf("; n=%d %.2fx", n, g/a)
		}
		checks = append(checks, c)
	}
	for _, tw := range vector.TileTwins() {
		goNS, asmNS := perCall(tw)
		checks = append(checks, ratio("assembly primitives", goNS, asmNS, asmMinSpeedup, "ns",
			fmt.Sprintf("%s (%.1f GB/s), Go loop vs asm: ", tw.Name, float64(tw.Bytes)/asmNS)))
	}
	return checks
}

// tsmmSeqReference is the pre-overhaul TSMM retained as the benchmark
// baseline: a single-threaded row-at-a-time upper-triangle accumulation
// (one load and store of each output element per multiply).
func tsmmSeqReference(x *matrix.Matrix) *matrix.Matrix {
	xd := x.Dense()
	m, n := x.Rows, x.Cols
	out := matrix.NewDense(n, n)
	od := out.Dense()
	for r := 0; r < m; r++ {
		off := r * n
		for i := 0; i < n; i++ {
			v := xd[off+i]
			if v == 0 {
				continue
			}
			vector.MultAdd(xd, v, od, off+i, i*n+i, n-i)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			od[j*n+i] = od[i*n+j]
		}
	}
	return out
}

// mmSeqReference is the pre-overhaul dense matmult retained as the
// benchmark baseline: an unblocked ikj loop over rows of A (no k/n tiling,
// no rank-4 unrolling), run single-threaded.
func mmSeqReference(a, b *matrix.Matrix) *matrix.Matrix {
	m, k, n := a.Rows, a.Cols, b.Cols
	out := matrix.NewDense(m, n)
	ad, bd, cd := a.Dense(), b.Dense(), out.Dense()
	for i := 0; i < m; i++ {
		ai, ci := i*k, i*n
		for kk := 0; kk < k; kk++ {
			vector.MultAdd(bd, ad[ai+kk], cd, kk*n, ci, n)
		}
	}
	return out
}

// Kernels measures the kernel-and-memory overhaul against retained
// pre-overhaul baselines:
//
//  1. TSMM: new rank-4 blocked parallel kernel at 8 workers vs the
//     sequential row-at-a-time reference (gate: >= 2x).
//  2. Allocation: bytes allocated by an iterative base-mode (unfused)
//     cellwise workload with the buffer pool on vs off (gate: >= 50% cut —
//     the lineage-aware executor recycles every dead intermediate).
//  3. Dense matmult, single worker: blocked kernel vs unblocked reference
//     (gate: < 2% regression; blocking should win outright).
//  4. Vector primitives: dot, rank-4 update and narrow product at n = 10,
//     64, 784, and the tile kernels of the narrow Row bodies (row sum and
//     row scaling at 1024x2 and 1024x5, a comparison and exp over 4096
//     cells), exported primitive vs its portable Go loop (gate: >= 2x at
//     n = 64 and for every tile kernel, so an assembly dispatch that
//     silently fails is a red build).
//
// The baselines of gates 1 and 3 call vector.MultAdd, which has an assembly
// kernel too: both sides of those gates got faster, what the gates measure
// is still the blocking.
func Kernels(o Options) []Check {
	reps := max(o.Reps, 3)
	oldProcs := runtime.GOMAXPROCS(8)
	oldWorkers := par.SetMaxWorkers(8)
	defer func() {
		par.SetMaxWorkers(oldWorkers)
		runtime.GOMAXPROCS(oldProcs)
	}()

	// --- Gate 1: TSMM, 8 workers vs the sequential reference. ---
	x := matrix.Rand(o.rows(2000), 200, 1, -1, 1, 1)
	tsmm := interleavedMin(reps, func() { matrix.TSMM(x).Release() }, func() { tsmmSeqReference(x).Release() })
	checks := []Check{ratio("TSMM speedup", msec(tsmm[1]), msec(tsmm[0]), tsmmMinSpeedup, "ms", "seq vs 8 workers: ")}

	// --- Gate 2: allocation reduction on the cellwise microbench. ---
	// Base mode materializes every intermediate of sum(X*Y*Z), which the
	// lineage-refcounting executor can recycle the moment its consumer runs.
	measureAlloc := func(pooled bool) float64 {
		old := matrix.SetPoolEnabled(pooled)
		defer matrix.SetPoolEnabled(old)
		cfg := codegen.DefaultConfig()
		cfg.Mode = codegen.ModeBase
		s := dml.NewSession(cfg)
		s.Out = io.Discard
		s.Bind("X", matrix.Rand(o.rows(2000), 100, 1, -1, 1, 2))
		s.Bind("Y", matrix.Rand(o.rows(2000), 100, 1, -1, 1, 3))
		s.Bind("Z", matrix.Rand(o.rows(2000), 100, 1, -1, 1, 4))
		var before, after runtime.MemStats
		for i := 0; i < 11; i++ { // the first run warms parse caches and the pool
			if i == 1 {
				runtime.ReadMemStats(&before)
			}
			if err := s.Run(`s = sum(X * Y * Z)`); err != nil {
				panic(fmt.Sprintf("kernels bench failed: %v", err))
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	unpooled, pooled := measureAlloc(false), measureAlloc(true)
	checks = append(checks, Check{Name: "cellwise alloc cut (pooling)", Measured: 100 * (unpooled - pooled) / unpooled,
		Baseline: unpooled, Limit: allocMinReductionPct, Cmp: ">=", Unit: "%",
		Detail: fmt.Sprintf("unpooled %.0f B → pooled %.0f B", unpooled, pooled)})

	// --- Gate 3: single-worker dense matmult, blocked vs reference. ---
	par.SetMaxWorkers(1)
	a := matrix.Rand(256, 256, 1, -1, 1, 5)
	b := matrix.Rand(256, 256, 1, -1, 1, 6)
	mm := interleavedMin(reps*3, func() { mmSeqReference(a, b).Release() }, func() { matrix.MatMult(a, b).Release() })
	checks = append(checks, overhead("dense matmult regression", mm[0], mm[1], mmMaxRegressionPct, "row-at-a-time vs blocked, 1 worker: "))

	// --- Gate 4: assembly primitives vs the retained Go loops. ---
	return append(checks, asmChecks(reps*3)...)
}
