package bench

import (
	"fmt"
	"io"
	"math"

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

// Compressed-execution gate thresholds.
const (
	// claMinSpeedup: executing the fused operator directly over column
	// groups must beat decompress-then-fuse by at least this factor on
	// Airline78-like data.
	claMinSpeedup = 3.0

	// claMinWireRatio: compressed shipping must cut broadcast and shuffle
	// volume by at least this factor when the side compresses >= 3x.
	claMinWireRatio = 2.0

	// claMinSideRatio: the wire check only counts when the broadcast side
	// actually compresses this well.
	claMinSideRatio = 3.0

	// claMaxOverheadPct: the auto-compress pass on incompressible data
	// (estimate once, cached decline afterwards) may cost at most this
	// much end to end.
	claMaxOverheadPct = 3.0
)

// claLowCard builds a dense matrix with card distinct values per column.
func claLowCard(rows, cols, card int, seed int64) *matrix.Matrix {
	m := matrix.Rand(rows, cols, 1, 0, float64(card), seed)
	d := m.Dense()
	for i := range d {
		d[i] = math.Floor(d[i])
	}
	return m
}

// claWireBytes runs one distributed matmult with a compressible broadcast
// side and reports broadcast + shuffle bytes with the codec toggled.
func claWireBytes(o Options, codec bool) (wire, sideRatio float64) {
	x := matrix.Rand(o.rows(4000), 200, 1, -1, 1, 62)
	w := claLowCard(200, 100, 3, 63)
	c := claLowCard(o.rows(4000), 200, 2, 66)
	cl := dist.NewCluster()
	cl.SetCompressedWire(codec)
	s := distSession(cl, x, w)
	s.Bind("C", c)
	// The auto-compress pass attaches W's column groups; the wire codec
	// then ships those instead of the dense block. colSums over the
	// low-cardinality C produces low-cardinality aggregation partials,
	// exercising the shuffle-side dictionary codec.
	if err := s.Run("P = X %*% W\ncs = colSums(C)"); err != nil {
		panic(fmt.Sprintf("cla dist bench failed: %v", err))
	}
	compress.Drop(c)
	if cm := compress.Of(w); cm != nil {
		sideRatio = cm.CompressionRatio()
	}
	compress.Drop(w)
	return float64(cl.BytesBroadcast() + cl.BytesShuffled()), sideRatio
}

// claDeclineSession is a warm session over the incompressible x under the
// compression mode; a run is one execution of sum(X * X).
func claDeclineSession(x *matrix.Matrix, mode codegen.CompressMode) func() {
	cfg := codegen.DefaultConfig()
	cfg.Compress = mode
	s := dml.NewSession(cfg)
	s.Out = io.Discard
	s.Bind("X", x)
	return func() {
		if err := s.Run("s = sum(X * X)"); err != nil {
			panic(fmt.Sprintf("cla decline bench failed: %v", err))
		}
	}
}

// CLA measures compressed linear algebra execution:
//
//  1. The fused sum(X^2) operator over column groups (one evaluation per
//     distinct dictionary tuple, scaled by counts) vs decompressing and
//     running the dense fused operator, Airline78-like data (gate: >= 3x).
//  2. Distributed traffic with a compressible broadcast side: wire bytes
//     with the compressed codec on vs off (gate: >= 2x fewer bytes), while
//     the side compresses >= 3x (gate).
//  3. Auto-compression on incompressible data: sampled estimate once, then
//     a cached decline (gate: < 3% end-to-end overhead, nothing attached).
//
// That compressed execution equals dense execution is a Tier-1 test
// (EXPERIMENTS.md, "cla").
func CLA(o Options) []Check {
	reps := max(o.Reps, 5)

	// --- Gate 1: fused over column groups vs decompress-then-fuse. ---
	air := data.AirlineLike(o.rows(100000), 61)
	sumsq := cplan.Compile(&cplan.Plan{
		Type: cplan.TemplateCell, Cell: cplan.CellFullAgg, AggOp: matrix.AggSum,
		Root:       cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Main(0)),
		SparseSafe: true,
	}, "TMP_CLA")
	cm := compress.Compress(air, compress.DefaultOptions())
	compress.Attach(air, cm)
	h := &hop.Hop{Kind: hop.OpSpoof, Spoof: sumsq}
	fused := interleavedMin(reps, func() {
		d := cm.Decompress()
		runtime.ExecCellwise(sumsq, d, nil).Release()
		d.Release()
	}, func() {
		out, bind, err := runtime.ExecSpoof(matrix.Ctx{}, h, []*matrix.Matrix{air}, nil)
		if err != nil || bind != runtime.BindDict {
			panic(fmt.Sprintf("cla bench: sum(X^2) ran under %q (%v), want the dictionary binding", bind, err))
		}
		out.Release()
	})
	compress.Drop(air)

	// --- Gate 2: compressed wire vs dense shipping. ---
	dense, _ := claWireBytes(o, false)
	wire, sideRatio := claWireBytes(o, true)

	// --- Gate 3: cached decline on incompressible data. ---
	// At 2M rows a run streams 160 MB in milliseconds, the scale the limit
	// was written for; at 100000 rows it took 0.2-0.3 ms, and tens of µs of
	// host noise decided the check. Both sessions read one matrix, so
	// neither reads memory the other placed better.
	x := matrix.Rand(o.rows(2000000), 10, 1, -1, 1, 64)
	decline := medianOverhead("auto-decline overhead", reps*10, claDeclineSession(x, codegen.CompressOff),
		claDeclineSession(x, codegen.CompressAuto), claMaxOverheadPct, "compression off vs auto: ")
	if compress.Of(x) != nil {
		panic("cla decline bench: incompressible input was compressed")
	}
	compress.Drop(x)

	return []Check{
		ratio("fused over column groups", msec(fused[0]), msec(fused[1]), claMinSpeedup, "ms", "decompress-then-fuse vs dictionary binding: "),
		ratio("compressed wire", dense, wire, claMinWireRatio, "B", "broadcast + shuffle, codec off vs on: "),
		{Name: "side compression ratio", Measured: sideRatio, Limit: claMinSideRatio, Cmp: ">=", Unit: "x"},
		decline,
	}
}
