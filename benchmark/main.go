// Command benchmark is the repository's one benchmark: two named
// workloads over the fusion optimizer and its runtime, end-to-end metrics
// from an untraced run under codegen.DefaultConfig(), per-layer metrics
// from a traced run of the same workload and seed. BENCHMARK.json at the
// repository root declares the workloads and metrics; README.md explains
// them. Run it through run.sh, from the repository root:
//
//	bash benchmark/run.sh --workload batch_mix --seed 1 --seconds 36 --trace 0
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sysml/internal/codegen"
)

// config is one run's arguments.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies the input sizes: 1 in every measurement; only tests
	// and the self-check set less, and no flag reaches it.
	scale     float64
	outDir    string // where a traced run writes its trace file
	checksums bool   // checksum the generated inputs (self-check)
	// stableCounts switches off time-triggered re-optimization, the one
	// thing that makes the optimizer's counts depend on the clock
	// (self-check only; measurements run the defaults).
	stableCounts bool
}

// optimizer is the configuration every session of the run uses:
// codegen.DefaultConfig() under the given mode.
func (c config) optimizer(mode codegen.Mode) codegen.Config {
	cfg := codegen.DefaultConfig()
	cfg.Mode = mode
	if c.stableCounts {
		cfg.Reopt.MinSec = math.Inf(1)
	}
	return cfg
}

// workloads in the order -all runs them. Why each exists is in
// BENCHMARK.json and README.md.
var workloads = []string{"batch_mix", "serve_mix"}

// programRow is one printed row. ms is the program's time as the metrics
// take it: on batch_mix the fastQuantile of its times over the passes, on
// serve_mix the median of its requests.
type programRow struct {
	name, group, tag string
	ms, medianMS     float64
	n                int
}

type namedValue struct {
	name string
	v    float64
}

// run is the state of one workload run.
type run struct {
	cfg      config
	tr       *tracer
	wd       *watchdog
	endToEnd values
	perLayer values
	rows     []programRow
	groups   []namedValue // batch_mix: the summed time of each group's programs, seconds (printed, not a metric)
	regrets  []namedValue
	ops      atomic.Int64

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string

	inputSum    uint64
	scheduleSum uint64
}

func (r *run) nextOp() int { return int(r.ops.Add(1)) }

// record counts one verified operation; err != nil makes it a failed one
// (an error, a shed or timed-out request, or a wrong result).
func (r *run) record(name string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, name+": "+err.Error())
		}
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload. When an operation passes its deadline the
// watchdog prints what there is to out and exits with code 3.
func execute(cfg config, out io.Writer) (*run, error) {
	r := &run{cfg: cfg, endToEnd: values{}, perLayer: values{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	r.wd = newWatchdog(serveClients, func(name string, limit time.Duration) { r.expire(name, limit, out, os.Exit) })
	defer r.wd.close()
	var err error
	switch cfg.workload {
	case "batch_mix":
		err = r.runBatch()
	case "serve_mix":
		err = r.runServe()
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloads)
	}
	return r, err
}

// expire is what the watchdog does by default: the operation counts as
// failed, the run prints what it has, and the process exits with code 3
// (the operation's goroutine may never return).
func (r *run) expire(name string, limit time.Duration, out io.Writer, exit func(int)) {
	r.record(name, fmt.Errorf("exceeded its deadline of %v", limit))
	fmt.Fprintf(out, "# WATCHDOG: %s exceeded its deadline of %v; partial results follow\n", name, limit)
	r.emit(out, fmt.Errorf("operation %s hung", name))
	exit(3)
}

// emit prints the run: header, per-program rows, every metric with unit
// and sample count, and as the last line the result object. With runErr
// set the result says correct=false.
func (r *run) emit(out io.Writer, runErr error) {
	cfg := r.cfg
	l2, l3 := cacheSizes()
	fmt.Fprintf(out, "# workload=%s seed=%d seconds=%g trace=%v scale=%g commit=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.scale, commit())
	fmt.Fprintf(out, "# nproc=%d GOMAXPROCS=%d go=%s L2=%s L3=%s (GB/s = computed bytes / time)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), l2, l3)
	fmt.Fprintf(out, "# arrays: fused %dx%d, outer %dx%d rank %d, mnist-like %d rows, requests %dx%d, %d per segment\n",
		fusedRows, fusedCols, outerN, outerN, outerRank, mnistRows, inRows, inCols, segmentReqs)
	if len(r.rows) > 0 {
		fmt.Fprintf(out, "%-22s %-13s %-11s %12s %12s %8s\n", "program", "group", "tag", "time_ms", "median_ms", "passes")
		for _, row := range r.rows {
			fmt.Fprintf(out, "%-22s %-13s %-11s %12.4f %12.4f %8d\n", row.name, row.group, row.tag, row.ms, row.medianMS, row.n)
		}
	}
	for _, g := range r.groups {
		fmt.Fprintf(out, "# group %-13s %10.4f s per pass (sum of its programs' times)\n", g.name, g.v)
	}
	defs, vs := endToEnd, r.endToEnd
	if cfg.trace {
		defs, vs = perLayer, r.perLayer
	}
	missing, extra := vs.fill(defs)
	fmt.Fprintf(out, "%-30s %16s %-8s %8s\n", "metric", "value", "unit", "samples")
	res := result{Metrics: map[string]resultValue{}}
	finite := true
	for _, d := range defs {
		v, ok := vs[d.name]
		if !ok {
			continue
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			finite = false
			v.v = 0
		}
		fmt.Fprintf(out, "%-30s %16.6f %-8s %8d\n", d.name, v.v, v.unit, v.n)
		res.Metrics[d.name] = resultValue{v.v, v.unit}
	}
	if cfg.trace {
		r.emitTrace(out)
	}
	r.mu.Lock()
	res.Attempted, res.Failed = r.attempted, r.failed
	failures := r.failures
	r.mu.Unlock()
	for _, f := range failures {
		fmt.Fprintf(out, "# FAILED %s\n", f)
	}
	if runErr != nil {
		fmt.Fprintf(out, "# ERROR %v\n", runErr)
	}
	if len(missing)+len(extra) > 0 {
		fmt.Fprintf(out, "# metrics missing %v, undeclared %v\n", missing, extra)
	}
	if !finite {
		fmt.Fprintf(out, "# a metric was not a finite number\n")
	}
	res.Correct = runErr == nil && res.Failed == 0 && res.Attempted > 0 && finite && len(missing)+len(extra) == 0
	line, _ := json.Marshal(res)
	fmt.Fprintf(out, "%s\n", line)
}

// emitTrace prints the plan regrets and the per-layer self time of the
// recorded spans, and writes the spans as Chrome trace-event JSON.
func (r *run) emitTrace(out io.Writer) {
	for _, rg := range r.regrets {
		fmt.Fprintf(out, "# regret %-22s %.3f\n", rg.name, rg.v)
	}
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	for layer := range self {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	for _, layer := range layers {
		fmt.Fprintf(out, "# self time %-10s %10.4f s\n", layer, self[layer].Seconds())
	}
	path := filepath.Join(r.cfg.outDir, "trace-"+r.cfg.workload+".json")
	if err := r.tr.writeChrome(path); err != nil {
		fmt.Fprintf(out, "# trace not written: %v\n", err)
		return
	}
	fmt.Fprintf(out, "# %d spans written to %s\n", len(spans), path)
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	var cfg config
	var trace int
	var all, selfcheck bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloads))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs and request schedule")
	flag.Float64Var(&cfg.seconds, "seconds", 36, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics; 0: untraced run, prints the end-to-end metrics")
	flag.BoolVar(&all, "all", false, "run every workload, each in a process of its own")
	flag.BoolVar(&selfcheck, "selfcheck", false, "determinism self-test at tiny scale")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.scale = 1
	cfg.outDir = filepath.Join("benchmark", "out")
	switch {
	case selfcheck:
		if err := selfCheck(cfg.seed, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "selfcheck:", err)
			os.Exit(1)
		}
	case all:
		os.Exit(runAll(cfg, trace))
	default:
		r, err := execute(cfg, os.Stdout)
		if r == nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		r.emit(os.Stdout, err)
		if err != nil {
			os.Exit(1)
		}
	}
}

// runAll runs every workload in a child process each, so that one
// workload's heap does not count towards the next one's peak_heap_mb.
func runAll(cfg config, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
			"-trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w, err)
			code = 1
		}
	}
	return code
}
