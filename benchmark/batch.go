package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"sysml/internal/codegen"
	"sysml/internal/compress"
	"sysml/internal/dml"
	"sysml/internal/matrix"
	"sysml/internal/obs"
	"sysml/internal/par"
)

// program is one named (script, input) pair of a batch workload. One call
// of exec is one operation.
type program struct {
	name  string
	group string // algos_dense, algos_sparse or fused_ops: which experiment of the paper it comes from
	tag   string // dense, sparse or compressed
	// script is the DML text exec runs (dml.parse_s times dml.Parse on it).
	script string
	// exec runs the script from text to results and returns the session
	// that holds them: a fresh one per call (algorithms) or the program's
	// prepared one (the fused_ops group).
	exec func() (*dml.Session, error)
	// sess is set for a prepared program: a session bound once and re-run,
	// whose counters accumulate across operations.
	sess    *dml.Session
	outputs []string
	// check verifies the outputs of one operation; stride > 1 lets it
	// sample large matrices.
	check func(got map[string]mat, stride int) error
	// reference, when set, computes what check compares against (not part
	// of setup_s) and chains the comparison into check via also.
	reference func() error
	// runMode times the program under another optimizer mode (traced runs,
	// for plan regret): the median of reps runs in seconds. regretReps is
	// how often each other mode runs.
	runMode    func(mode codegen.Mode, reps int) (float64, error)
	regretReps int
	// baseSec is the time of the Base reference run, once it was made;
	// noBase marks a program that is never run under Base.
	baseSec float64
	noBase  bool
	// work is what one operation computes, for GB/s and GFLOP/s.
	bytes, flops float64

	warm time.Duration // warm-up time, sets the watchdog deadline
}

// also makes check run f after what it already runs.
func (p *program) also(f func(got map[string]mat, stride int) error) {
	prev := p.check
	p.check = func(got map[string]mat, stride int) error {
		if err := prev(got, stride); err != nil {
			return err
		}
		return f(got, stride)
	}
}

// batchState is batch_mix set up: generated inputs and programs.
type batchState struct {
	programs []*program
	// inputSum is the checksum of the generated inputs (self-check only).
	inputSum uint64
	fused    *fusedState // inputs of the fused_ops group, for the layer replay
}

// buildBatchMix sets up the three groups of batch_mix in the order a pass
// runs them: Table 4, Table 5, then the Fig 8/9 operators.
func buildBatchMix(cfg config) (*batchState, error) {
	st := &batchState{}
	for _, g := range []struct {
		group string
		build func(cfg config) (*batchState, error)
	}{
		{"algos_dense", buildAlgosDense},
		{"algos_sparse", buildAlgosSparse},
		{"fused_ops", buildFused},
	} {
		part, err := g.build(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.group, err)
		}
		for _, p := range part.programs {
			p.group = g.group
		}
		st.programs = append(st.programs, part.programs...)
		st.inputSum = st.inputSum*1099511628211 ^ part.inputSum
		if part.fused != nil {
			st.fused = part.fused
		}
	}
	return st, nil
}

const (
	// minPasses is the least number of timed passes of a run; the counts
	// of a traced run cover the warm-up pass and exactly this many passes,
	// so they do not depend on how long the run lasts.
	minPasses = 5
	// Set-up is repeated at least minSetups times and at most maxSetups
	// times, as long as one more repeat keeps the total within setupBudget;
	// setup_s is the median.
	minSetups   = 2
	maxSetups   = 5
	setupBudget = 5 * time.Second
	// sampleStride is the cell stride of output checks between full checks.
	sampleStride = 97
	// fullCheckEvery makes every n-th pass check every output cell.
	fullCheckEvery = 8
)

// counters are what a session's public snapshots report, summed over the
// sessions of the counting window.
type counters struct {
	sec   map[string]float64 // seconds by phase
	n     map[string]int64
	audit obs.RelErrHist
}

func newCounters() *counters {
	return &counters{sec: map[string]float64{}, n: map[string]int64{}}
}

// addSession folds one session's cumulative counters in: Session.Stats,
// Session.Metrics() and Session.CostAudit().
func (c *counters) addSession(s *dml.Session) {
	snap := s.Metrics()
	for _, phase := range []string{"phase.compile", "phase.execute"} {
		c.sec[phase] += snap.Hist(phase).Sum
	}
	c.sec["codegen.time"] += s.Stats.CodegenTime.Seconds()
	c.sec["cplan.compile"] += s.Stats.CompileTime.Seconds()
	c.n["plans_evaluated"] += s.Stats.PlansEvaluated
	c.n["dags_optimized"] += s.Stats.DAGsOptimized
	c.n["cplans_constructed"] += s.Stats.CPlansConstructed
	c.n["operators_compiled"] += s.Stats.OperatorsCompiled
	c.n["plancache_hits"] += snap.Counter("plancache.hits")
	c.n["plancache_misses"] += snap.Counter("plancache.misses")
	c.n["plancache_evictions"] += snap.Counter("plancache.evictions")
	c.n["blocks_optimized"] += s.Blocks
	c.n["blocks_reused"] += s.BlockCacheHits
	for _, name := range []string{"spoof.invocations", "compress.exec.hit", "compress.exec.fallback", "compress.auto.declined"} {
		c.n[name] += snap.Counter(name)
	}
	for _, t := range s.CostAudit().Templates {
		for i, v := range t.RelErr.Buckets {
			c.audit.Buckets[i] += v
		}
	}
}

// layerValues turns the window's counters into the per-layer metrics they
// feed.
func (c *counters) layerValues(vs values, sessions int) {
	vs.set("dml.compile_s", c.sec["phase.compile"], sessions)
	vs.set("dml.blocks_optimized", float64(c.n["blocks_optimized"]), sessions)
	vs.set("dml.blocks_reused", float64(c.n["blocks_reused"]), sessions)
	vs.set("codegen.time_s", c.sec["codegen.time"], sessions)
	for _, k := range []string{"plans_evaluated", "dags_optimized", "cplans_constructed",
		"operators_compiled", "plancache_hits", "plancache_misses", "plancache_evictions"} {
		vs.set("codegen."+k, float64(c.n[k]), sessions)
	}
	vs.set("codegen.cost_relerr_p50", c.audit.Median(), int(c.audit.Count()))
	vs.set("cplan.compile_s", c.sec["cplan.compile"], sessions)
	perSec := 0.0
	if t := c.sec["cplan.compile"]; t > 0 {
		perSec = float64(c.n["operators_compiled"]) / t
	}
	vs.set("cplan.operators_per_s", perSec, int(c.n["operators_compiled"]))
	vs.set("runtime.execute_s", c.sec["phase.execute"], sessions)
	vs.set("runtime.spoof_invocations", float64(c.n["spoof.invocations"]), sessions)
	vs.set("compress.exec_hit", float64(c.n["compress.exec.hit"]), sessions)
	vs.set("compress.exec_fallback", float64(c.n["compress.exec.fallback"]), sessions)
	vs.set("compress.auto_declined", float64(c.n["compress.auto.declined"]), sessions)
}

// procStats is a snapshot of the process-wide public counters: buffer
// pool, worker pool and Go allocator.
type procStats struct {
	pool matrix.PoolUsage
	par  par.Usage
	mem  runtime.MemStats
}

func readProcStats() procStats {
	var p procStats
	p.pool = matrix.PoolStats()
	p.par = par.Stats()
	runtime.ReadMemStats(&p.mem)
	return p
}

// procValues reports what the process-wide counters did between two
// snapshots that are passes passes apart.
func procValues(vs values, a, b procStats, passes int) {
	gets := b.pool.Gets - a.pool.Gets
	hits := b.pool.Hits - a.pool.Hits
	rate := 0.0
	if gets > 0 {
		rate = float64(hits) / float64(gets)
	}
	vs.set("pool.hitrate", rate, int(gets))
	vs.set("pool.gets", float64(gets), passes)
	vs.set("pool.misses", float64(gets-hits), passes)
	vs.set("pool.bytes_recycled", float64(b.pool.BytesRecycled-a.pool.BytesRecycled), passes)
	np := float64(passes)
	vs.set("alloc.mb_per_pass", float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/np/(1<<20), passes)
	vs.set("alloc.mallocs_per_pass", float64(b.mem.Mallocs-a.mem.Mallocs)/np, passes)
	vs.set("gc.cycles", float64(b.mem.NumGC-a.mem.NumGC), passes)
	vs.set("gc.pause_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6, passes)
	u := par.Usage{
		Calls:      b.par.Calls - a.par.Calls,
		Goroutines: b.par.Goroutines - a.par.Goroutines,
		Sequential: b.par.Sequential - a.par.Sequential,
	}
	vs.set("par.utilization", u.Utilization(par.MaxWorkers()), int(u.Calls))
	vs.set("par.calls", float64(u.Calls), passes)
	vs.set("par.sequential", float64(u.Sequential), passes)
}

// gather reads the named outputs of a session as views.
func gather(s *dml.Session, names []string) (map[string]mat, error) {
	got := make(map[string]mat, len(names))
	for _, name := range names {
		m, err := s.Get(name)
		if err != nil {
			return nil, err
		}
		got[name] = matOf(m)
	}
	return got, nil
}

// runOp executes and verifies one operation of p under the watchdog and
// records it in the run. check=false skips verification (warm-up passes
// of discarded set-ups, which have no references).
func (r *run) runOp(p *program, passSpan spanID, limit time.Duration, check bool, stride int, win *counters) (time.Duration, bool) {
	op := r.nextOp()
	sp := r.tr.begin(passSpan, op, 0, "dml.Session.Run "+p.name)
	r.wd.arm(0, p.name, limit)
	t0 := time.Now()
	sess, err := p.exec()
	d := time.Since(t0)
	r.wd.disarm(0)
	r.tr.end(sp)
	if err == nil && check {
		var got map[string]mat
		if got, err = gather(sess, p.outputs); err == nil {
			err = p.check(got, stride)
		}
	}
	if err == nil && win != nil && p.sess == nil {
		win.addSession(sess)
	}
	if check {
		r.record(p.name, err)
	}
	return d, err == nil
}

// runBatch runs batch_mix: repeated set-up, timed passes, and in a traced
// run the layer numbers.
func (r *run) runBatch() error {
	cfg := r.cfg
	var st *batchState
	var setups []float64
	var total, prev time.Duration
	win := newCounters() // sessions of the warm-up pass and the first minPasses passes
	for i := 1; ; i++ {
		last := cfg.trace || i >= maxSetups || (i >= minSetups && total+prev >= setupBudget)
		t0 := time.Now()
		var err error
		if st, err = buildBatchMix(cfg); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		if last {
			for _, p := range st.programs {
				if p.reference == nil {
					continue
				}
				r.wd.arm(0, "reference "+p.name, warmLimit)
				err := p.reference()
				r.wd.disarm(0)
				if err != nil {
					return fmt.Errorf("reference: %w", err)
				}
			}
		}
		t1 := time.Now()
		for _, p := range st.programs {
			var count *counters
			if last {
				count = win
			}
			p.warm, _ = r.runOp(p, 0, warmLimit, last, 1, count)
		}
		d += time.Since(t1)
		total, prev = total+d, d
		setups = append(setups, d.Seconds())
		if last {
			break
		}
		// Drop this set-up before the next so peak_heap_mb holds one copy
		// of the inputs; the attachment registry would otherwise keep the
		// bound inputs reachable.
		st = nil
		compress.DropAll()
		runtime.GC()
	}
	r.inputSum = st.inputSum

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget = budget * 6 / 10 // the rest of a traced run goes to regret and probes
	}
	var passes []passStat
	var before, after procStats
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start) < budget; pass++ {
		if pass == 0 {
			before = readProcStats()
		}
		ps := passStat{traced: cfg.trace && pass%2 == 1, byProg: map[string][]float64{}}
		r.tr.enable(ps.traced)
		passSpan := r.tr.begin(0, 0, 0, "bench.pass")
		stride := sampleStride
		if pass%fullCheckEvery == 0 {
			stride = 1
		}
		var count *counters
		if pass < minPasses {
			count = win
		}
		for _, p := range st.programs {
			d, ok := r.runOp(p, passSpan, opLimit(p.warm), true, stride, count)
			ps.wall += d.Seconds()
			if ok {
				ps.verified++
				ps.byProg[p.name] = append(ps.byProg[p.name], d.Seconds())
			}
		}
		r.tr.end(passSpan)
		passes = append(passes, ps)
		if pass == minPasses-1 {
			after = readProcStats()
			for _, p := range st.programs {
				if p.sess != nil {
					win.addSession(p.sess)
				}
			}
		}
	}
	r.tr.enable(cfg.trace)

	untraced, traced := split(passes)
	// Each program's median time is what regret and the GB/s numbers use
	// (they compare it with medians of a few runs); its fastQuantile time is
	// what the end-to-end metrics use.
	sec := map[string]float64{}
	var fast, medians []float64
	passSec := 0.0 // a pass when the host leaves it alone: the sum of the programs' times
	for _, p := range st.programs {
		sec[p.name] = timeQuantile(passes, 0.5, p.name)
		f := timeQuantile(passes, fastQuantile, p.name)
		r.rows = append(r.rows, programRow{p.name, p.group, p.tag, f * 1e3, sec[p.name] * 1e3, len(passes)})
		fast = append(fast, f*1e3)
		medians = append(medians, sec[p.name]*1e3)
		passSec += f
	}
	for _, g := range []string{"algos_dense", "algos_sparse", "fused_ops"} {
		sum := 0.0
		for _, row := range r.rows {
			if row.group == g {
				sum += row.ms
			}
		}
		r.groups = append(r.groups, namedValue{g, sum / 1e3})
	}
	if !cfg.trace {
		e := r.endToEnd
		runMetrics(e, setups, passSec, len(passes))
		e.set("geomean_ms", geomean(fast), len(fast))
		return nil
	}

	l := r.perLayer
	sliceMetrics(l, r.rows, passes)
	// The pooled latencies have one mode per program, and their median
	// jumps between the two middle programs' modes; the median over programs
	// of each program's median estimates the same point steadily. Their 99th
	// percentile is the few slowest operations of the run, so the tail is
	// the 95th, which lies inside the slowest programs' own distributions.
	l.set("ops.p50_ms", median(medians), len(medians))
	l.set("ops.median_ms", geomean(medians), len(medians))
	lat := pooled(passes)
	l.set("ops.tail_ms", quantile(lat, 0.95)*1e3, len(lat))
	sessions := len(st.programs) * (minPasses + 1)
	win.layerValues(l, sessions)
	procValues(l, before, after, minPasses)
	traceOverhead(l, untraced, traced)
	parseTime(r, l, st.programs)
	if err := regret(r, l, st.programs, sec); err != nil {
		return err
	}
	if err := layerProbes(r, l, st.fused, sec); err != nil {
		return err
	}
	return serveProbe(r, l)
}

// parseTime times dml.Parse over the workload's scripts: the sum over
// programs of the median of parseReps calls.
func parseTime(r *run, l values, programs []*program) {
	const parseReps = 21
	var total float64
	for _, p := range programs {
		sp := r.tr.begin(0, 0, 0, "dml.Parse "+p.name)
		total += medianOf(parseReps, func() {
			if _, err := dml.Parse(p.script); err != nil {
				r.record("parse "+p.name, err)
			}
		})
		r.tr.end(sp)
	}
	l.set("dml.parse_s", total, len(programs)*parseReps)
}

// regret reports t(Gen) / min over the five modes per program: the
// maximum and the geomean over programs. Gen's time is the program's
// median over the timed passes, the other modes' the median of the program's
// regretReps runs; Base's is the reference run where there was one.
func regret(r *run, l values, programs []*program, genSec map[string]float64) error {
	others := []codegen.Mode{codegen.ModeBase, codegen.ModeFused, codegen.ModeGenFA, codegen.ModeGenFNR}
	var ratios []float64
	for _, p := range programs {
		best := genSec[p.name]
		for _, mode := range others {
			if mode == codegen.ModeBase && p.noBase {
				continue // Base is known to be far slower here and is not run
			}
			sec := p.baseSec
			if mode != codegen.ModeBase || sec == 0 {
				sp := r.tr.begin(0, 0, 0, "bench.regret "+p.name+" "+mode.String())
				r.wd.arm(0, "regret "+p.name+" "+mode.String(), warmLimit)
				var err error
				sec, err = p.runMode(mode, p.regretReps)
				r.wd.disarm(0)
				r.tr.end(sp)
				if err != nil {
					return fmt.Errorf("regret %s %v: %w", p.name, mode, err)
				}
			}
			if sec < best {
				best = sec
			}
		}
		ratio := genSec[p.name] / best
		ratios = append(ratios, ratio)
		r.regrets = append(r.regrets, namedValue{p.name, ratio})
	}
	sort.Slice(r.regrets, func(i, j int) bool { return r.regrets[i].v > r.regrets[j].v })
	l.set("codegen.regret_max", quantile(ratios, 1), len(ratios))
	l.set("codegen.regret_geomean", geomean(ratios), len(ratios))
	return nil
}

func heapSysMiB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapSys) / (1 << 20)
}
