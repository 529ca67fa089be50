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
// predicted vs measured cost per fused-operator template. -explain and
// -audit end with the run report on stderr (BUFFER POOL, COMPRESSED,
// DISTRIBUTED, CALIBRATION: Session.RunReport over metrics snapshots taken
// around the run, the sections Session.Explain appends). -calibrate auto
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
	compressFlag := flag.String("compress", "auto", "compressed linear algebra: auto (sampled-ratio heuristic) | off")
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
	case "off":
		cfg.Compress = codegen.CompressOff
	default:
		fmt.Fprintf(os.Stderr, "unknown -compress %q (want auto|off)\n", *compressFlag)
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
	before := s.Metrics()
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
	after := s.Metrics()
	if *audit {
		fmt.Print(s.CostAudit())
	}
	if *explain {
		printPhases(after)
	}
	if *explain || *audit {
		fmt.Fprint(os.Stderr, s.RunReport(before, after))
	}
	if *stats {
		st := s.Stats
		fmt.Printf("blocks=%d dags=%d cplans=%d compiled=%d cacheHits=%d plansEvaluated=%d codegen=%v compile=%v\n",
			s.Blocks, st.DAGsOptimized, st.CPlansConstructed, st.OperatorsCompiled,
			st.CacheHits, st.PlansEvaluated, st.CodegenTime, st.CompileTime)
	}
	if *metrics {
		fmt.Print(after)
	}
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
