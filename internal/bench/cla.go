package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

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

// claFile is the JSON artifact CLA writes; CI gates on its "pass" field.
const claFile = "BENCH_cla.json"

// Compressed-execution gate thresholds.
const (
	// claMinSpeedup: executing the fused operator directly over column
	// groups must beat decompress-then-fuse by at least this factor on
	// Airline78-like data.
	claMinSpeedup = 3.0

	// claMinWireRatio: compressed shipping must cut broadcast and shuffle
	// volume by at least this factor when the side compresses >= 3x.
	claMinWireRatio = 2.0

	// claMinSideRatio: the distributed gate only counts when the broadcast
	// side actually compresses this well.
	claMinSideRatio = 3.0

	// claMaxRelErr: compressed execution must match dense within this
	// relative tolerance.
	claMaxRelErr = 1e-9

	// claMaxOverheadPct: the auto-compress pass on incompressible data
	// (estimate once, cached decline afterwards) may cost at most this
	// much end to end.
	claMaxOverheadPct = 3.0
)

// CLAResult is the serialized outcome of the compressed-execution gates.
type CLAResult struct {
	DecompressMS float64 `json:"decompress_ms"` // decompress + dense fused op
	CompressedMS float64 `json:"compressed_ms"` // fused op over column groups
	Speedup      float64 `json:"speedup"`
	SpeedupPass  bool    `json:"speedup_pass"` // >= 3x

	SideRatio    float64 `json:"side_ratio"`    // compression ratio of the broadcast side
	BcastDense   int64   `json:"bcast_dense"`   // broadcast bytes, codec off
	BcastComp    int64   `json:"bcast_comp"`    // broadcast bytes, codec on
	ShuffleDense int64   `json:"shuffle_dense"` // shuffle bytes, codec off
	ShuffleComp  int64   `json:"shuffle_comp"`  // shuffle bytes, codec on
	WireRatio    float64 `json:"wire_ratio"`    // dense / compressed, bcast+shuffle
	WirePass     bool    `json:"wire_pass"`     // >= 2x at side ratio >= 3

	MaxRelErr float64 `json:"max_rel_err"`
	EquivPass bool    `json:"equiv_pass"` // compressed == dense within 1e-9

	BaselineMS  float64 `json:"baseline_ms"` // CompressOff on incompressible data
	AutoMS      float64 `json:"auto_ms"`     // CompressAuto, cached decline
	OverheadPct float64 `json:"overhead_pct"`
	DeclinePass bool    `json:"decline_pass"` // overhead < 3% and nothing attached

	Pass bool `json:"pass"`
}

// claOps are the fused bodies the equivalence gate sweeps: a full
// aggregate, a column aggregate, and a cellwise map.
func claOps() map[string]*cplan.Operator {
	sumsq := &cplan.Plan{
		Type: cplan.TemplateCell, Cell: cplan.CellFullAgg, AggOp: matrix.AggSum,
		Root:       cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Main(0)),
		SparseSafe: true,
	}
	colagg := &cplan.Plan{
		Type: cplan.TemplateCell, Cell: cplan.CellColAgg, AggOp: matrix.AggSum,
		Root: cplan.Binary(matrix.BinAdd, cplan.Main(0), cplan.Lit(1)),
	}
	noagg := &cplan.Plan{
		Type: cplan.TemplateCell, Cell: cplan.CellNoAgg,
		Root: cplan.Binary(matrix.BinAdd,
			cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Lit(2)), cplan.Lit(1)),
	}
	return map[string]*cplan.Operator{
		"sumsq":  cplan.Compile(sumsq, "TMP_CLA1"),
		"colagg": cplan.Compile(colagg, "TMP_CLA2"),
		"noagg":  cplan.Compile(noagg, "TMP_CLA3"),
	}
}

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
// side and reports (broadcast, shuffle) bytes with the codec toggled.
func claWireBytes(o Options, codec bool) (bcast, shuffle int64, sideRatio float64) {
	x := matrix.Rand(o.rows(4000), 200, 1, -1, 1, 62)
	w := claLowCard(200, 100, 3, 63)
	c := claLowCard(o.rows(4000), 200, 2, 66)
	cfg := codegen.DefaultConfig()
	cfg.Mode = codegen.ModeBase
	cfg.Exec.MemBudgetBytes = x.SizeBytes() / 2 // force X operators distributed
	cl := dist.NewCluster()
	cl.SetCompressedWire(codec)
	s := dml.NewSession(cfg)
	s.Dist = cl
	s.Out = io.Discard
	s.Bind("X", x)
	s.Bind("W", w)
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
	return cl.BytesBroadcast(), cl.BytesShuffled(), sideRatio
}

// claDeclineTimes times warm sessions over incompressible data with
// auto-compression off vs on. The auto pass must estimate once, cache the
// decline, and stay out of the way. Runs are interleaved and each sample
// amortizes several executions so the sub-millisecond workload is not at
// the mercy of GC pauses from earlier gates.
func claDeclineTimes(o Options, reps int) (baseMS, autoMS float64) {
	const inner = 10
	mkRun := func(mode codegen.CompressMode) (*matrix.Matrix, func()) {
		x := matrix.Rand(o.rows(100000), 10, 1, -1, 1, 64)
		cfg := codegen.DefaultConfig()
		cfg.Compress = mode
		s := dml.NewSession(cfg)
		s.Out = io.Discard
		s.Bind("X", x)
		return x, func() {
			for i := 0; i < inner; i++ {
				if err := s.Run("s = sum(X * X)"); err != nil {
					panic(fmt.Sprintf("cla decline bench failed: %v", err))
				}
			}
		}
	}
	xOff, runOff := mkRun(codegen.CompressOff)
	xAuto, runAuto := mkRun(codegen.CompressAuto)
	runOff() // warm: plan cache, and in auto mode the cached decline
	runAuto()
	base, auto := minTime(1, runOff), minTime(1, runAuto)
	for i := 1; i < reps; i++ {
		if d := minTime(1, runOff); d < base {
			base = d
		}
		if d := minTime(1, runAuto); d < auto {
			auto = d
		}
	}
	if compress.Of(xAuto) != nil {
		panic("cla decline bench: incompressible input was compressed")
	}
	compress.Drop(xOff)
	compress.Drop(xAuto)
	return float64(base.Nanoseconds()) / 1e6 / inner, float64(auto.Nanoseconds()) / 1e6 / inner
}

// CLA measures compressed linear algebra execution and writes
// BENCH_cla.json:
//
//  1. The fused sum(X^2) operator over column groups (one evaluation per
//     distinct dictionary tuple, scaled by counts) vs decompressing and
//     running the dense fused operator, Airline78-like data (gate: >= 3x).
//  2. Distributed traffic with a compressible broadcast side: wire bytes
//     with the compressed codec on vs off (gate: >= 2x fewer bytes while
//     the side compresses >= 3x).
//  3. Compressed execution vs dense execution across full-aggregate,
//     column-aggregate, and cellwise-map bodies on Airline-like, constant,
//     and sparse data (gate: max relative error < 1e-9).
//  4. Auto-compression on incompressible data: sampled estimate once, then
//     a cached decline (gate: < 3% end-to-end overhead, nothing attached).
func CLA(o Options) *Table {
	reps := o.Reps
	if reps < 5 {
		reps = 5
	}

	// --- Gate 1: fused over column groups vs decompress-then-fuse. ---
	air := data.AirlineLike(o.rows(100000), 61)
	ops := claOps()
	cm := compress.Compress(air, compress.DefaultOptions())
	compress.Attach(air, cm)
	h := &hop.Hop{Kind: hop.OpSpoof, Spoof: ops["sumsq"]}
	compressed := minTime(reps, func() {
		out, bind, err := runtime.ExecSpoof(matrix.Ctx{}, h, []*matrix.Matrix{air}, nil)
		if err != nil || bind != runtime.BindDict {
			panic(fmt.Sprintf("cla bench: sum(X^2) ran under %q (%v), want the dictionary binding", bind, err))
		}
		out.Release()
	})
	decomp := minTime(reps, func() {
		d := cm.Decompress()
		runtime.ExecCellwise(ops["sumsq"], d, nil).Release()
		d.Release()
	})
	speedup := float64(decomp) / float64(compressed)

	// --- Gate 3: compressed == dense across bodies and datasets. ---
	worst := 0.0
	constant := matrix.NewDense(2000, 8)
	for i := range constant.Dense() {
		constant.Dense()[i] = 4
	}
	sparse := matrix.Rand(5000, 12, 0.1, 1, 4, 65)
	sd := sparse.ToDense()
	for i, v := range sd.Dense() {
		sd.Dense()[i] = math.Floor(v)
	}
	datasets := map[string]*matrix.Matrix{
		"airline": air, "constant": constant, "sparse": sd,
	}
	for dn, m := range datasets {
		if compress.Of(m) == nil {
			compress.Attach(m, compress.Compress(m, compress.DefaultOptions()))
		}
		for opn, op := range ops {
			got, bind, err := runtime.ExecSpoof(matrix.Ctx{}, &hop.Hop{Kind: hop.OpSpoof, Spoof: op}, []*matrix.Matrix{m}, nil)
			if err != nil || bind != runtime.BindDict {
				panic(fmt.Sprintf("cla bench: %s/%s ran under %q (%v), want the dictionary binding", dn, opn, bind, err))
			}
			want := runtime.ExecCellwise(op, m, nil)
			if d := maxRelDiffHF(got, want); d > worst {
				worst = d
			}
		}
		compress.Drop(m)
	}

	// --- Gate 2: compressed wire vs dense shipping. ---
	bd, sdn, _ := claWireBytes(o, false)
	bc, sc, sideRatio := claWireBytes(o, true)
	wireRatio := 0.0
	if bc+sc > 0 {
		wireRatio = float64(bd+sdn) / float64(bc+sc)
	}

	// --- Gate 4: cached decline on incompressible data. ---
	baseMS, autoMS := claDeclineTimes(o, reps)
	overhead := 100 * (autoMS - baseMS) / baseMS

	res := CLAResult{
		DecompressMS: float64(decomp.Nanoseconds()) / 1e6,
		CompressedMS: float64(compressed.Nanoseconds()) / 1e6,
		Speedup:      speedup,
		SpeedupPass:  speedup >= claMinSpeedup,
		SideRatio:    sideRatio,
		BcastDense:   bd,
		BcastComp:    bc,
		ShuffleDense: sdn,
		ShuffleComp:  sc,
		WireRatio:    wireRatio,
		WirePass:     wireRatio >= claMinWireRatio && sideRatio >= claMinSideRatio,
		MaxRelErr:    worst,
		EquivPass:    worst < claMaxRelErr,
		BaselineMS:   baseMS,
		AutoMS:       autoMS,
		OverheadPct:  overhead,
		DeclinePass:  overhead < claMaxOverheadPct,
	}
	res.Pass = res.SpeedupPass && res.WirePass && res.EquivPass && res.DeclinePass
	if data, err := json.MarshalIndent(res, "", "  "); err == nil {
		if err := os.WriteFile(claFile, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(o.Out, "cla: cannot write %s: %v\n", claFile, err)
		}
	}

	t := &Table{
		Title:   "Compressed execution gates: fused-over-groups speedup, wire bytes, equivalence, decline overhead",
		Columns: []string{"gate", "baseline", "new", "delta", "pass"},
	}
	t.Add("fused over groups", ms(decomp), ms(compressed),
		fmt.Sprintf("%.2fx (need >=%.1fx)", speedup, claMinSpeedup), fmt.Sprintf("%v", res.SpeedupPass))
	t.Add("compressed wire", fmt.Sprintf("%d B", bd+sdn), fmt.Sprintf("%d B", bc+sc),
		fmt.Sprintf("%.2fx (need >=%.1fx at ratio %.2f)", wireRatio, claMinWireRatio, sideRatio),
		fmt.Sprintf("%v", res.WirePass))
	t.Add("compressed == dense", "dense", "groups",
		fmt.Sprintf("maxrel %.2g (limit <%.0g)", worst, claMaxRelErr), fmt.Sprintf("%v", res.EquivPass))
	t.Add("decline overhead", fmt.Sprintf("%.2f ms", baseMS), fmt.Sprintf("%.2f ms", autoMS),
		fmt.Sprintf("%+.2f%% (limit <%.0f%%)", overhead, claMaxOverheadPct), fmt.Sprintf("%v", res.DeclinePass))
	return t
}
