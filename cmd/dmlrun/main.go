// Command dmlrun executes a DML-subset script file through the full
// compile/optimize/execute pipeline and prints codegen statistics.
//
//	dmlrun -mode Gen script.dml
//	dmlrun -mode Base -stats script.dml
//	dmlrun -explain script.dml
//
// -explain prints the EXPLAIN report of every optimized block (plan
// partitions, chosen templates, estimated cost, fused operators) plus a
// compile/optimize/execute phase-time breakdown. -trace out.json exports
// the run's hierarchical spans as Chrome trace-event JSON (load in
// chrome://tracing or Perfetto). -audit prints the cost-audit ledger:
// predicted vs measured cost per fused-operator template. -calibrate auto
// fits the cost-model constants online from this run's measurements;
// -calibrate file additionally loads/saves a per-machine profile JSON (see
// docs/COST_MODEL.md). Input matrices can be generated inside the script
// with rand(...); there is no file-based matrix I/O in this reproduction.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"sysml/internal/bench"
	"sysml/internal/codegen"
	"sysml/internal/dist"
	"sysml/internal/dml"
	"sysml/internal/matrix"
	"sysml/internal/obs"
)

func main() {
	mode := flag.String("mode", "Gen", "optimizer mode: Base|Fused|Gen|Gen-FA|Gen-FNR")
	stats := flag.Bool("stats", false, "print codegen statistics after the run")
	explain := flag.Bool("explain", false, "print per-block EXPLAIN reports and a phase-time breakdown")
	metrics := flag.Bool("metrics", false, "print the full metrics snapshot after the run")
	trace := flag.String("trace", "", "write the run's spans as Chrome trace-event JSON to this file")
	audit := flag.Bool("audit", false, "print the cost-audit ledger (predicted vs measured operator cost)")
	useDist := flag.Bool("dist", false, "attach the simulated distributed backend (operators over -membudget run distributed)")
	executors := flag.Int("executors", 6, "simulated executor count for -dist")
	memBudget := flag.Int64("membudget", 0, "local memory budget in bytes; operators estimated above it run distributed (0 keeps the default)")
	faultSeed := flag.Int64("faultseed", 0, "fault-injection seed for -dist (0 with -faultrate 0 and -killexec -1 disables injection)")
	faultRate := flag.Float64("faultrate", 0, "per-task transient-failure probability for -dist fault injection")
	killExec := flag.Int("killexec", -1, "executor id to kill permanently at the first task of the run (-1 disables)")
	compressFlag := flag.String("compress", "auto", "compressed linear algebra: auto (sampled-ratio heuristic) | on (always compress inputs) | off")
	calibrate := flag.String("calibrate", "off", "cost-model calibration: auto (fit constants online from this run) | off | file (load the -profile JSON, fit online, save back on exit)")
	profile := flag.String("profile", "", "calibration profile JSON path for -calibrate file")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dmlrun [-mode Gen] [-stats] [-explain] [-metrics] [-trace out.json] [-audit] [-calibrate auto|off|file [-profile p.json]] [-dist [-executors N] [-membudget B] [-faultseed S -faultrate P -killexec E]] script.dml")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := codegen.DefaultConfig()
	found := false
	for _, m := range bench.Modes {
		if m.String() == *mode {
			cfg.Mode = m
			found = true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	if *memBudget > 0 {
		cfg.Exec.MemBudgetBytes = *memBudget
	}
	switch *compressFlag {
	case "auto":
		cfg.Compress = codegen.CompressAuto
	case "on":
		cfg.Compress = codegen.CompressOn
	case "off":
		cfg.Compress = codegen.CompressOff
	default:
		fmt.Fprintf(os.Stderr, "unknown -compress %q (want auto|on|off)\n", *compressFlag)
		os.Exit(2)
	}
	s := dml.NewSession(cfg)
	var saveProfile string
	switch *calibrate {
	case "off":
	case "auto":
		s.Calib = codegen.NewCalibrator(cfg.Costs)
	case "file":
		if *profile == "" {
			fmt.Fprintln(os.Stderr, "-calibrate file requires -profile <path>")
			os.Exit(2)
		}
		s.Calib = codegen.NewCalibrator(cfg.Costs)
		if p, err := codegen.LoadProfile(*profile); err == nil {
			s.Calib.ApplyProfile(p)
			s.Config.Costs = s.Calib.Model()
		} else {
			fmt.Fprintf(os.Stderr, "calibration profile ignored (%v); starting from defaults\n", err)
		}
		saveProfile = *profile
	default:
		fmt.Fprintf(os.Stderr, "unknown -calibrate %q (want auto|off|file)\n", *calibrate)
		os.Exit(2)
	}
	var cluster *dist.Cluster
	if *useDist {
		cluster = dist.NewCluster(dist.WithExecutors(*executors))
		if *faultSeed != 0 || *faultRate > 0 || *killExec >= 0 {
			plan := &dist.FaultPlan{
				Seed:          *faultSeed,
				TransientRate: *faultRate,
				KillExecutor:  *killExec,
			}
			if *killExec >= 0 {
				plan.KillAtTask = 1
			}
			cluster.SetFaultPlan(plan)
		}
		s.Dist = cluster
	}
	var sinks obs.MultiSink
	if *explain {
		sinks = append(sinks, obs.NewWriterSink(os.Stderr))
	}
	var ts *obs.TraceSink
	if *trace != "" {
		ts = obs.NewTraceSink()
		sinks = append(sinks, ts)
	}
	if len(sinks) > 0 {
		s.Sink = sinks
	}
	poolBefore := matrix.PoolStats()
	if err := s.Run(string(src)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if ts != nil {
		if err := ts.WriteFile(*trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", ts.Len(), *trace)
	}
	if saveProfile != "" {
		s.Calib.Refit()
		if err := s.Calib.Profile().Save(saveProfile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote calibration profile to %s\n", saveProfile)
	}
	if *audit {
		fmt.Print(s.CostAudit())
		if s.Calib != nil {
			st := s.Calib.State()
			fmt.Printf("# CALIBRATION source=%s gen=%d refits=%d samples=%d skipped=%d\n",
				st.Source, st.Gen, st.Refits, st.Samples, st.Skipped)
			fmt.Printf("  read=%.3g write=%.3g flop=%.3g bcast=%.3g compress=%.3g (priors %.3g/%.3g/%.3g/%.3g/%.3g)\n",
				st.Model.ReadBW, st.Model.WriteBW, st.Model.ComputeBW, st.Model.BroadcastBW, st.Model.CompressBW,
				st.Prior.ReadBW, st.Prior.WriteBW, st.Prior.ComputeBW, st.Prior.BroadcastBW, st.Prior.CompressBW)
		}
	}
	if *explain {
		snap := s.Metrics()
		printPhases(snap)
		printPool(poolBefore, matrix.PoolStats())
		printCompress(snap)
		if cluster != nil {
			printDist(cluster)
		}
	}
	if *stats {
		st := s.Stats
		fmt.Printf("blocks=%d dags=%d cplans=%d compiled=%d cacheHits=%d plansEvaluated=%d codegen=%v compile=%v\n",
			s.Blocks, st.DAGsOptimized, st.CPlansConstructed, st.OperatorsCompiled,
			st.CacheHits, st.PlansEvaluated, st.CodegenTime, st.CompileTime)
	}
	if *metrics {
		fmt.Print(s.Metrics())
	}
}

// printPool writes the buffer-pool delta over the run: how many
// intermediate allocations the lineage refcounting turned into recycled
// buffers.
func printPool(before, after matrix.PoolUsage) {
	gets, hits, puts := after.Gets-before.Gets, after.Hits-before.Hits, after.Puts-before.Puts
	recycled := after.BytesRecycled - before.BytesRecycled
	rate := 0.0
	if gets > 0 {
		rate = 100 * float64(hits) / float64(gets)
	}
	fmt.Fprintln(os.Stderr, "# buffer pool")
	fmt.Fprintf(os.Stderr, "  pooled allocations: %d (hits %d, misses %d)\n", gets, hits, gets-hits)
	fmt.Fprintf(os.Stderr, "  buffers returned:   %d\n", puts)
	fmt.Fprintf(os.Stderr, "  bytes recycled:     %d (hit rate %.1f%%)\n", recycled, rate)
}

// printCompress writes the compressed-linear-algebra summary: the values
// the compression pass compressed, the ones the estimator declined, the
// reads of script-produced values it never sampled, the achieved
// compression ratio, and how many fused operators executed directly over
// column groups versus falling back to dense.
func printCompress(snap obs.Snapshot) {
	ac := snap.Counters["compress.auto.compressed"]
	ad := snap.Counters["compress.auto.declined"]
	skipped := snap.Counters["compress.plan.skipped"]
	hit := snap.Counters["compress.exec.hit"]
	fb := snap.Counters["compress.exec.fallback"]
	if ac+ad+skipped+hit+fb == 0 {
		return
	}
	fmt.Fprintln(os.Stderr, "# compressed linear algebra")
	fmt.Fprintf(os.Stderr, "  inputs compressed:  %d (declined %d from %d estimates, %d reads never sampled)\n",
		ac, ad, snap.Counters["compress.auto.sampled"], skipped)
	if r, ok := snap.Gauges["compress.ratio"]; ok {
		fmt.Fprintf(os.Stderr, "  compression ratio:  %.2f\n", r)
	}
	fmt.Fprintf(os.Stderr, "  operator execution: %d compressed, %d fallback\n", hit, fb)
}

// printDist writes the distributed backend's traffic summary: broadcast
// and shuffle volumes, the simulated network time they imply, broadcast
// handle-cache effectiveness, and shuffle bytes per reduction stage.
func printDist(c *dist.Cluster) {
	hits, misses, invals := c.BroadcastCacheStats()
	fmt.Fprintln(os.Stderr, "# distributed")
	fmt.Fprintf(os.Stderr, "  executors:          %d\n", c.NumExecutors)
	fmt.Fprintf(os.Stderr, "  bytes broadcast:    %d\n", c.BytesBroadcast())
	fmt.Fprintf(os.Stderr, "  bytes shuffled:     %d\n", c.BytesShuffled())
	fmt.Fprintf(os.Stderr, "  simulated net time: %v\n", c.NetTime())
	fmt.Fprintf(os.Stderr, "  broadcast cache:    hits %d, misses %d, invalidations %d\n", hits, misses, invals)
	if cb, cs, sb, ss := c.CompressedWireStats(); cb+cs+sb+ss > 0 {
		fmt.Fprintf(os.Stderr, "  compressed wire:    bcast %d B (saved %d), shuffle %d B (saved %d)\n", cb, cs, sb, ss)
	}
	stages := c.ShuffleStageBytes()
	var names []string
	for stage := range stages {
		names = append(names, stage)
	}
	sort.Strings(names)
	for _, stage := range names {
		fmt.Fprintf(os.Stderr, "  shuffle[%-5s]:     %d\n", stage, stages[stage])
	}
	if !c.FaultActive() {
		return
	}
	ft := c.FaultStats()
	fmt.Fprintln(os.Stderr, "  faults")
	fmt.Fprintf(os.Stderr, "    injected:         transient %d, stragglers %d, kills %d (dead executors %v)\n",
		ft.TransientInjected, ft.StragglersInjected, ft.Kills, c.DeadExecutors())
	fmt.Fprintf(os.Stderr, "    recovered:        retries %d, reassigned %d, broadcasts re-shipped %d (%d B)\n",
		ft.Retries, ft.Reassigned, ft.BcastReships, ft.BcastReshipBytes)
	fmt.Fprintf(os.Stderr, "    speculation:      launched %d, wins %d\n", ft.SpecLaunched, ft.SpecWins)
	fmt.Fprintf(os.Stderr, "    degraded to local: %d\n", ft.Degraded)
}

// printPhases writes the compile/optimize/execute wall-time breakdown
// recorded by the session's trace spans.
func printPhases(snap obs.Snapshot) {
	var names []string
	for name := range snap.Hists {
		if strings.HasPrefix(name, "phase.") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var total float64
	for _, name := range names {
		total += snap.Hists[name].Sum
	}
	fmt.Fprintln(os.Stderr, "# phase breakdown")
	for _, name := range names {
		h := snap.Hists[name]
		pct := 0.0
		if total > 0 {
			pct = 100 * h.Sum / total
		}
		fmt.Fprintf(os.Stderr, "  %-16s %10.3fms  %5.1f%%  (%d calls)\n",
			strings.TrimPrefix(name, "phase."), h.Sum*1e3, pct, h.Count)
	}
}
