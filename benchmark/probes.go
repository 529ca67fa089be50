package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"sysml/internal/codegen"
	"sysml/internal/compress"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/par"
	"sysml/internal/rewrite"
	sysrt "sysml/internal/runtime"
	"sysml/internal/vector"
)

// The probe suite measures single layers from outside, the same way in
// every traced run, so each per-layer metric exists for each workload:
// plain loops for the machine's own rates, the vector and matrix kernels,
// the worker pool, the compressor, and a layer-by-layer replay of the
// fused_ops programs (hop builder -> rewrite -> explore/enumerate ->
// optimize -> execute). batch_mix replays its own full-size programs;
// serve_mix replays a copy at probeScale.
const (
	probeScale = 0.2
	probeReps  = 5
)

var sink float64 // keeps probe loops from being optimised away

// machineProbes measures what this host gives plain loops: the read
// bandwidth of all cores together (one goroutine per core summing its
// share of a 128 MB array; the denominator of runtime.roofline_frac) and
// the multiply-add rate of one core (what vector.* is read against).
func machineProbes(l values, scale float64) {
	n := scaled(16<<20, scale, 1<<12) // 128 MB of float64: 16x the L2 of the reference host
	a := make([]float64, n)
	for i := range a {
		a[i] = float64(i & 7)
	}
	cores := runtime.GOMAXPROCS(0)
	partial := make([]float64, cores)
	readSec := medianOf(3, func() {
		var wg sync.WaitGroup
		for c := 0; c < cores; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				part := a[c*n/cores : (c+1)*n/cores]
				var s0, s1, s2, s3 float64
				for i := 0; i+3 < len(part); i += 4 {
					s0 += part[i]
					s1 += part[i+1]
					s2 += part[i+2]
					s3 += part[i+3]
				}
				partial[c] = s0 + s1 + s2 + s3
			}(c)
		}
		wg.Wait()
	})
	sink += partial[0]
	l.set("machine.read_gbps", float64(n*8)/readSec/1e9, 3)
	iters := scaled(1<<26, scale, 1<<12)
	flopSec := medianOf(3, func() {
		x0, x1, x2, x3 := 1.0, 1.1, 1.2, 1.3
		for i := 0; i < iters; i++ {
			x0 = x0*0.999999 + 1e-9
			x1 = x1*0.999999 + 1e-9
			x2 = x2*0.999999 + 1e-9
			x3 = x3*0.999999 + 1e-9
		}
		sink += x0 + x1 + x2 + x3
	})
	l.set("machine.gflops", 8*float64(iters)/flopSec/1e9, 3)
	l.set("machine.nproc", float64(runtime.NumCPU()), 1)
	l.set("machine.gomaxprocs", float64(runtime.GOMAXPROCS(0)), 1)
}

// vectorProbes times the two primitives the Row template leans on, single
// thread, on operands that fit L1 and on operands of 32 MB.
func vectorProbes(l values, scale float64) {
	for _, c := range []struct {
		suffix string
		n      int
	}{{"", 1 << 10}, {"_mem", scaled(2<<20, scale, 1<<10)}} {
		a, b := make([]float64, c.n), make([]float64, c.n)
		for i := range a {
			a[i], b[i] = float64(i&15), 1
		}
		calls := scaled(64<<20, scale, 1<<12) / c.n // 64M elements per timing
		dot := medianOf(probeReps, func() {
			for k := 0; k < calls; k++ {
				sink += vector.DotProduct(a, b, 0, 0, c.n)
			}
		})
		l.set("vector.dot"+c.suffix+"_gflops", 2*float64(calls*c.n)/dot/1e9, probeReps)
		madd := medianOf(probeReps, func() {
			for k := 0; k < calls; k++ {
				vector.MultAdd(a, 1e-9, b, 0, 0, c.n)
			}
		})
		l.set("vector.multadd"+c.suffix+"_gflops", 2*float64(calls*c.n)/madd/1e9, probeReps)
	}
}

// matrixProbes times the dense kernels MLogreg, KMeans and AutoEncoder
// spend their time in.
func matrixProbes(r *run, l values, scale float64) {
	timed := func(name string, fn func() *matrix.Matrix) float64 {
		sp := r.tr.begin(0, 0, 0, name)
		defer r.tr.end(sp)
		return medianOf(probeReps, func() { fn().Release() })
	}
	n := scaled(384, scale, 32)
	a, b := matrix.Rand(n, n, 1, -1, 1, 1), matrix.Rand(n, n, 1, -1, 1, 2)
	mm := timed("matrix.MatMult", func() *matrix.Matrix { return matrix.MatMult(a, b) })
	l.set("matrix.matmult_gflops", 2*float64(n*n*n)/mm/1e9, probeReps)
	x := matrix.Rand(scaled(50000, scale, 500), 64, 1, -1, 1, 3)
	ts := timed("matrix.TSMM", func() *matrix.Matrix { return matrix.TSMM(x) })
	l.set("matrix.tsmm_gflops", 2*float64(x.Rows*x.Cols*x.Cols)/ts/1e9, probeReps)
	v := matrix.Rand(64, 1, 1, -1, 1, 4)
	mv := timed("matrix.MatMult mv", func() *matrix.Matrix { return matrix.MatMult(x, v) })
	l.set("matrix.mv_gbps", float64(x.SizeBytes())/mv/1e9, probeReps)
}

// parProbes times the fixed cost of one parallel region.
func parProbes(l values, scale float64) {
	calls := scaled(20000, scale, 100)
	sec := medianOf(probeReps, func() {
		for i := 0; i < calls; i++ {
			par.For(64, 1, func(lo, hi int) {})
		}
	})
	l.set("par.dispatch_us", sec/float64(calls)*1e6, probeReps*calls)
}

// compressProbe times the compressor on a compressible table.
func compressProbe(r *run, l values, scale float64) {
	x := codesLike(scaled(20000, scale, 2500), 99)
	var cm *compress.CMatrix
	sp := r.tr.begin(0, 0, 0, "compress.Compress")
	sec := medianOf(3, func() { cm = compress.Compress(x, compress.DefaultOptions()) })
	r.tr.end(sp)
	l.set("compress.compress_s", sec, 3)
	l.set("compress.ratio", cm.CompressionRatio(), 1)
}

// dagProbe is an expression the optimizer layers are timed on.
type dagProbe struct {
	name  string
	build func() *hop.DAG
	// prog and in are set for fused_ops programs: the replay executes the
	// optimized DAG on in and compares with prog's session result.
	prog *program
	in   map[string]*matrix.Matrix
}

// readsOf returns the read function a fusedSpec's dag wants: one transient
// read per input, with the exact non-zero count as the script compiler
// uses.
func readsOf(d *hop.DAG, in map[string]*matrix.Matrix) func(string) *hop.Hop {
	reads := map[string]*hop.Hop{}
	return func(name string) *hop.Hop {
		if h, ok := reads[name]; ok {
			return h
		}
		m := in[name]
		h := d.Read(name, int64(m.Rows), int64(m.Cols), int64(m.Nnz()))
		reads[name] = h
		return h
	}
}

// algorithmDAGs are three statement blocks of the algorithms, built with
// the hop builder at Table-4/5 shapes: larger search spaces than the
// single-operator fused_ops expressions.
func algorithmDAGs() []dagProbe {
	const n, m, k = 100000, 100, 3
	return []dagProbe{
		{name: "mlogreg.inner", build: func() *hop.DAG {
			d := hop.NewDAG()
			x, p, s := d.Read("X", n, m, -1), d.Read("P", n, k, -1), d.Read("S", m, k, -1)
			q := mul(d, p, d.MatMult(x, s))
			d.Output("Q", q)
			hs := d.MatMult(d.Transpose(x), d.Binary(matrix.BinSub, q, mul(d, p, d.RowSums(q))))
			d.Output("HS", d.Binary(matrix.BinAdd, hs, mul(d, d.Lit(1e-3), s)))
			return d
		}},
		{name: "l2svm.linesearch", build: func() *hop.DAG {
			d := hop.NewDAG()
			y, xw, xd := d.Read("Y", n, 1, -1), d.Read("Xw", n, 1, -1), d.Read("Xd", n, 1, -1)
			step, wd, dd := d.Read("step", 1, 1, -1), d.Read("wd", 1, 1, -1), d.Read("dd", 1, 1, -1)
			out := d.Binary(matrix.BinSub, d.Lit(1), mul(d, y, d.Binary(matrix.BinAdd, xw, mul(d, step, xd))))
			sv := d.Binary(matrix.BinGt, out, d.Lit(0))
			g := d.Binary(matrix.BinSub, d.Binary(matrix.BinAdd, wd, mul(d, step, dd)),
				d.Sum(mul(d, mul(d, mul(d, out, sv), y), xd)))
			d.Output("g", g)
			d.Output("h", d.Binary(matrix.BinAdd, dd, d.Sum(mul(d, mul(d, xd, sv), xd))))
			return d
		}},
		{name: "alscg.update", build: func() *hop.DAG {
			d := hop.NewDAG()
			const rows, cols, rank = 10000, 4000, 10
			x, s, v := d.Read("X", rows, cols, 40000), d.Read("S", rows, rank, -1), d.Read("V", cols, rank, -1)
			mask := d.Binary(matrix.BinNeq, x, d.Lit(0))
			hs := d.MatMult(mul(d, mask, d.MatMult(s, d.Transpose(v))), v)
			d.Output("HS", d.Binary(matrix.BinAdd, hs, mul(d, d.Lit(1e-3), s)))
			return d
		}},
	}
}

// annotateCompressed does for a replayed DAG what the session's
// compression pass does after rewrites: transient reads of inputs that
// carry a compressed form are priced at their compressed size.
func annotateCompressed(d *hop.DAG, in map[string]*matrix.Matrix) {
	for _, h := range hop.TopoOrder(d.Roots()) {
		if h.Kind != hop.OpData {
			continue
		}
		if cm := compress.Of(in[h.Name]); cm != nil {
			h.CompressedBytes = cm.SizeBytes()
			h.CompressedDesc = compress.Summary(cm)
		}
	}
}

// replayLayers runs every probe DAG through the optimizer's layers from
// outside, timing each public call, and for fused_ops programs executes
// the optimized DAG and asserts its result equals the session's.
func replayLayers(r *run, l values, probes []dagProbe) error {
	var rewriteSec, exploreSec, enumSec, optSec float64
	var hopsIn, hopsOut int
	cfg := codegen.DefaultConfig()
	for _, pb := range probes {
		op := r.nextOp()
		root := r.tr.begin(0, op, 0, "bench.replay "+pb.name)
		var rw, ex, en, opt []float64
		for rep := 0; rep < probeReps; rep++ {
			d := pb.build()
			if rep == 0 {
				hopsIn += len(hop.TopoOrder(d.Roots()))
			}
			sp := r.tr.begin(root, op, 0, "rewrite.Apply")
			t := time.Now()
			d, _ = rewrite.Apply(d)
			rw = append(rw, time.Since(t).Seconds())
			r.tr.end(sp)
			annotateCompressed(d, pb.in)
			if rep == 0 {
				hopsOut += len(hop.TopoOrder(d.Roots()))
			}

			// Search alone, on a second copy: Optimize below modifies its DAG.
			d2, _ := rewrite.Apply(pb.build())
			annotateCompressed(d2, pb.in)
			hop.AssignExecTypes(d2.Roots(), cfg.Exec)
			sp = r.tr.begin(root, op, 0, "codegen.Explore")
			t = time.Now()
			memo := codegen.Explore(d2.Roots(), &cfg)
			ex = append(ex, time.Since(t).Seconds())
			r.tr.end(sp)
			sp = r.tr.begin(root, op, 0, "codegen.Enumerate")
			t = time.Now()
			for _, part := range codegen.BuildPartitions(memo, d2.Roots()) {
				codegen.NewEnumerator(&cfg, memo, part).Best()
			}
			en = append(en, time.Since(t).Seconds())
			r.tr.end(sp)

			cache := codegen.NewPlanCacheSized(cfg.PlanCache, cfg.PlanCacheSize)
			sp = r.tr.begin(root, op, 0, "codegen.Optimize")
			t = time.Now()
			d = codegen.Optimize(d, &cfg, cache, codegen.NewStats())
			opt = append(opt, time.Since(t).Seconds())
			r.tr.end(sp)

			if pb.prog == nil {
				continue
			}
			sp = r.tr.begin(root, op, 0, "runtime.ExecuteDAG")
			out, err := sysrt.ExecuteDAG(d, sysrt.Env(pb.in), sysrt.Options{})
			r.tr.end(sp)
			if err != nil {
				return fmt.Errorf("replay %s: %w", pb.name, err)
			}
			if rep == 0 {
				err = equalsSession(pb.prog, out)
			}
			for _, m := range out {
				m.Release()
			}
			if err != nil {
				return fmt.Errorf("replay %s differs from Session.Run: %w", pb.name, err)
			}
		}
		r.tr.end(root)
		rewriteSec += median(rw)
		exploreSec += median(ex)
		enumSec += median(en)
		optSec += median(opt)
	}
	n := len(probes) * probeReps
	l.set("rewrite.apply_s", rewriteSec, n)
	l.set("rewrite.hops_in", float64(hopsIn), len(probes))
	l.set("rewrite.hops_out", float64(hopsOut), len(probes))
	l.set("codegen.explore_s", exploreSec, n)
	l.set("codegen.enumerate_s", enumSec, n)
	l.set("codegen.optimize_s", optSec, n)
	return nil
}

// equalsSession runs the program's prepared session once and compares the
// replay's outputs with the session's.
func equalsSession(p *program, out sysrt.Env) error {
	sess, err := p.exec()
	if err != nil {
		return err
	}
	want, err := gather(sess, p.outputs)
	if err != nil {
		return err
	}
	got := map[string]mat{}
	for name, m := range out {
		got[name] = matOf(m)
	}
	return compareAll(got, want, tolFused, 1)
}

// buildProbeFused sets up the fused_ops programs at probeScale for
// serve_mix, which has none of its own, verifies them against the naive
// loops and times each a few times.
func buildProbeFused(r *run) (*fusedState, map[string]float64, error) {
	cfg := r.cfg
	cfg.checksums = false
	cfg.scale *= probeScale
	st, err := buildFused(cfg)
	if err != nil {
		return nil, nil, err
	}
	medians := map[string]float64{}
	for _, p := range st.programs {
		if err := p.reference(); err != nil {
			return nil, nil, err
		}
		var runErr error
		medians[p.name] = medianOf(probeReps, func() {
			sess, err := p.exec()
			if err == nil {
				var got map[string]mat
				if got, err = gather(sess, p.outputs); err == nil {
					err = p.check(got, 1)
				}
			}
			if err != nil && runErr == nil {
				runErr = err
			}
		})
		if runErr != nil {
			return nil, nil, fmt.Errorf("probe %s: %w", p.name, runErr)
		}
	}
	return st.fused, medians, nil
}

// layerProbes fills every probe-side per-layer metric. sec holds the
// median time of each fused program.
func layerProbes(r *run, l values, fs *fusedState, sec map[string]float64) error {
	scale := r.cfg.scale // below 1 only in tests and the self-check
	machineProbes(l, scale)
	vectorProbes(l, scale)
	matrixProbes(r, l, scale)
	parProbes(l, scale)
	compressProbe(r, l, scale)

	var probes []dagProbe
	for _, p := range fs.programs {
		spec, in := fs.specs[p.name], fs.inputs[p.name]
		probes = append(probes, dagProbe{
			name: p.name, prog: p, in: in,
			build: func() *hop.DAG {
				d := hop.NewDAG()
				spec.dag(d, readsOf(d, in))
				return d
			},
		})
	}
	if err := replayLayers(r, l, append(probes, algorithmDAGs()...)); err != nil {
		return err
	}

	byName := map[string]*program{}
	for _, p := range fs.programs {
		byName[p.name] = p
	}
	gbps := func(name string) float64 { return byName[name].bytes / sec[name] / 1e9 }
	l.set("runtime.cell_gbps", gbps("cell.dense"), 1)
	l.set("runtime.sparse_cell_gbps", gbps("cell.sparse"), 1)
	l.set("runtime.magg_gbps", gbps("magg.dense"), 1)
	l.set("runtime.row_gbps", gbps("row.dense"), 1)
	l.set("runtime.outer_gflops", byName["outer.sp0.001"].flops/sec["outer.sp0.001"]/1e9, 1)
	l.set("runtime.roofline_frac", gbps("cell.dense")/l["machine.read_gbps"].v, 1)

	// The plain single-thread baseline: the same generated operator with
	// the worker pool capped at one worker.
	cell := byName["cell.dense"]
	prev := par.SetMaxWorkers(1)
	one := medianOf(3, func() { cell.exec() })
	par.SetMaxWorkers(prev)
	l.set("par.speedup", one/sec["cell.dense"], 3)
	return nil
}

// cacheSizes reads the L2 and L3 sizes of cpu0 from sysfs ("?" when the
// host does not expose them).
func cacheSizes() (l2, l3 string) {
	read := func(idx string) string {
		b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + idx + "/size")
		if err != nil {
			return "?"
		}
		return strings.TrimSpace(string(b))
	}
	return read("2"), read("3")
}
