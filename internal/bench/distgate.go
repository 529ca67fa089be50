package bench

import (
	"fmt"
	"io"

	"sysml/internal/codegen"
	"sysml/internal/dist"
	"sysml/internal/dml"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/obs"
)

// Distributed-backend gate thresholds.
const (
	// bcastMinRatio: a 10-iteration loop re-using one loop-invariant side
	// input must broadcast at least this factor fewer bytes with the handle
	// cache on than off (one shipment instead of ten → expect ~10x).
	bcastMinRatio = 5.0

	// shuffleMinRatio: tree aggregation must ship at least this factor
	// fewer bytes than the seed model (every map partition's densified
	// partial to a single reducer).
	shuffleMinRatio = 1.5

	// distMaxRegressionPct: the pooled zero-copy panel executor at ONE
	// executor may not regress wall-clock by more than this vs the
	// seed-style extract/allocate/copy-back executor.
	distMaxRegressionPct = 2.0
)

// distSession is a Base-mode session over x and w whose X operators run on cl.
func distSession(cl *dist.Cluster, x, w *matrix.Matrix) *dml.Session {
	cfg := codegen.DefaultConfig()
	cfg.Mode = codegen.ModeBase
	cfg.Exec.MemBudgetBytes = x.SizeBytes() / 2 // force X operators distributed
	s := dml.NewSession(cfg)
	s.Dist = cl
	s.Out = io.Discard
	s.Bind("X", x)
	if w != nil {
		s.Bind("W", w)
	}
	return s
}

// distIterBytes runs a 10-iteration loop whose matmult re-uses the
// loop-invariant broadcast side W on every iteration, with the broadcast
// handle cache toggled, and returns the broadcast volume. Base mode keeps the
// operator mix fixed across both runs.
func distIterBytes(o Options, cached bool) float64 {
	cl := dist.NewCluster()
	cl.SetBroadcastCache(cached)
	s := distSession(cl, matrix.Rand(o.rows(20000), 100, 1, -1, 1, 21), matrix.Rand(100, 50, 1, -1, 1, 22))
	if err := s.Run("acc = X %*% W\nfor (i in 1:9) {\n  acc = acc + X %*% W\n}"); err != nil {
		panic(fmt.Sprintf("dist bench failed: %v", err))
	}
	return float64(cl.BytesBroadcast())
}

// seedPanelMatMultReference is the pre-overhaul panel executor retained as
// the benchmark baseline: per panel, extract the row slice (allocation +
// copy), run the allocating matmult, densify, and copy the panel result
// back into the output — run at one executor (sequential), matching the
// single-executor configuration of the new path it gates.
func seedPanelMatMultReference(a, b *matrix.Matrix, blocksize int) *matrix.Matrix {
	out := matrix.NewDense(a.Rows, b.Cols)
	od := out.Dense()
	n := b.Cols
	for lo := 0; lo < a.Rows; lo += blocksize {
		hi := lo + blocksize
		if hi > a.Rows {
			hi = a.Rows
		}
		panel := matrix.IndexRange(a, lo, hi, 0, a.Cols)
		part := matrix.MatMult(panel, b)
		copy(od[lo*n:hi*n], part.ToDense().Dense())
		part.Release()
		panel.Release()
	}
	return out
}

// Dist measures the distributed-backend overhaul against seed behavior:
//
//  1. Broadcast: a 10-iteration loop with a loop-invariant side input,
//     handle cache on vs off (gate: >= 5x fewer broadcast bytes — the side
//     ships once per cluster lifetime instead of once per operator).
//  2. Shuffle: colSums and sum over a tall matrix, tree aggregation vs the
//     seed's star shuffle, one densified partial per map panel to a single
//     reducer (gate: >= 1.5x fewer bytes). The seed's bytes are counted from
//     the panels the shuffle spans report.
//  3. Wall-clock: the zero-copy pooled panel executor at ONE executor vs
//     the seed-style extract/allocate/copy-back executor (gate: < 2%
//     regression; removing the double allocation should win outright).
//
// That distributed results equal local ones is a Tier-1 test
// (EXPERIMENTS.md, "dist").
func Dist(o Options) []Check {
	reps := max(o.Reps, 3)

	// --- Gate 1: broadcast handle cache on the iterative loop. ---
	checks := []Check{ratio("broadcast cache", distIterBytes(o, false), distIterBytes(o, true), bcastMinRatio, "B",
		"cache off vs on, 10 iterations: ")}

	// --- Gate 2: tree aggregation vs the seed star shuffle. ---
	x := matrix.Rand(o.rows(200000), 50, 1, -1, 1, 23)
	cl := dist.NewCluster()
	s := distSession(cl, x, nil)
	spans := &obs.Collector{}
	s.Sink = spans
	if err := s.Run("cs = colSums(X)\nts = sum(X)"); err != nil {
		panic(fmt.Sprintf("dist bench failed: %v", err))
	}
	panels := 0
	for _, e := range spans.Events() {
		for _, a := range e.Attrs {
			if a.Key == "partitions" && e.Name == "dist.shuffle" {
				panels = a.Value.(int) // both aggregates split X alike
			}
		}
	}
	seed := float64(panels * (x.Cols + 1) * 8) // a 1×cols and a 1×1 dense partial per panel
	checks = append(checks, ratio("tree shuffle", seed, float64(cl.BytesShuffled()), shuffleMinRatio, "B",
		fmt.Sprintf("seed star model (%d panels) vs tree: ", panels)))

	// --- Gate 3: single-executor wall-clock, zero-copy vs seed-style. ---
	a := matrix.Rand(o.rows(20000), 100, 1, -1, 1, 24)
	b := matrix.Rand(100, 50, 1, -1, 1, 25)
	one := dist.NewCluster(dist.WithExecutors(1))
	mm := &hop.Hop{Kind: hop.OpMatMult, Rows: int64(a.Rows), Cols: int64(b.Cols)}
	d := interleavedMin(reps*3, func() { seedPanelMatMultReference(a, b, one.Blocksize).Release() }, func() {
		out, ok := one.ExecHop(mm, []*matrix.Matrix{a, b}, obs.Span{})
		if !ok {
			panic("dist bench: matmult fell back to local")
		}
		out.Release()
	})
	return append(checks, overhead("1-executor regression", d[0], d[1], distMaxRegressionPct, "seed-style vs zero-copy mapmm: "))
}
