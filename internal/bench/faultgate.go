package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"sysml/internal/codegen"
	"sysml/internal/dist"
	"sysml/internal/dml"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/obs"
)

// faultFile is the JSON artifact Fault writes next to the harness output;
// CI gates on its "pass" field.
const faultFile = "BENCH_fault.json"

// Fault-tolerance gate thresholds.
const (
	// faultEqTol: results computed under injected faults must match local
	// execution within this absolute tolerance.
	faultEqTol = 1e-9

	// faultMaxOverheadPct: with a fault plan attached but nothing injected
	// (the scheduler runs, no faults fire), wall-clock may exceed the
	// plan-free fast path by at most this percentage.
	faultMaxOverheadPct = 3.0

	// faultMaxRecoveryX: losing one of six executors at the first task may
	// stretch wall-clock by at most this factor over the fault-free run
	// (capacity drops 1/6; recovery adds reassignment, not recomputation
	// of completed panels).
	faultMaxRecoveryX = 2.5
)

// FaultResult is the serialized outcome of the fault-tolerance gates.
type FaultResult struct {
	ChaosRuns      int   `json:"chaos_runs"`      // session runs under injected faults
	ChaosChecked   int   `json:"chaos_checked"`   // result comparisons vs local
	ChaosTransient int64 `json:"chaos_transient"` // transient failures injected
	ChaosRetries   int64 `json:"chaos_retries"`
	ChaosKills     int64 `json:"chaos_kills"`
	ChaosStraggler int64 `json:"chaos_stragglers"`
	ChaosPass      bool  `json:"chaos_pass"` // all equal AND faults actually injected

	OverheadOffMS float64 `json:"overhead_off_ms"` // no fault plan (par fast path)
	OverheadOnMS  float64 `json:"overhead_on_ms"`  // inert plan (fault scheduler, no injection)
	OverheadPct   float64 `json:"overhead_pct"`
	OverheadPass  bool    `json:"overhead_pass"` // < 3%

	RecoveryFreeMS float64 `json:"recovery_free_ms"` // 6 live executors
	RecoveryKillMS float64 `json:"recovery_kill_ms"` // 1 of 6 killed at first task
	RecoveryX      float64 `json:"recovery_x"`
	RecoveryPass   bool    `json:"recovery_pass"` // <= 2.5x

	Pass bool `json:"pass"`
}

// faultChaosSession runs an iterative map/matmult/aggregate script on a
// cluster with the given fault plan (operators forced distributed) and
// compares every variable against fault-free local execution. It reports
// the comparisons performed and whether all matched.
func faultChaosSession(o Options, plan *dist.FaultPlan, seed int64) (cl *dist.Cluster, equal bool, checked int) {
	x := matrix.Rand(o.rows(8000), 24, 1, -1, 1, seed)
	w := matrix.Rand(24, 6, 1, -1, 1, seed+90)
	cfg := codegen.DefaultConfig()
	cfg.Mode = codegen.ModeBase
	cfg.Exec.MemBudgetBytes = x.SizeBytes() / 2 // force X operators distributed
	cl = dist.NewCluster(dist.WithFaultPlan(plan))
	s := dml.NewSession(cfg)
	s.Dist = cl
	s.Out = io.Discard
	s.Bind("X", x)
	s.Bind("W", w)
	script := `P = X %*% W
A = abs(X)
cs = colSums(A)
t = sum(P)`
	if err := s.Run(script); err != nil {
		panic(fmt.Sprintf("fault bench failed: %v", err))
	}
	equal = true
	for name, want := range map[string]*matrix.Matrix{
		"P":  matrix.MatMult(x, w),
		"A":  matrix.Unary(matrix.UnAbs, x),
		"cs": matrix.Agg(matrix.AggSum, matrix.DirCol, matrix.Unary(matrix.UnAbs, x)),
		"t":  matrix.Agg(matrix.AggSum, matrix.DirAll, matrix.MatMult(x, w)),
	} {
		got, err := s.Get(name)
		if err != nil {
			panic(fmt.Sprintf("fault bench: %v", err))
		}
		equal = equal && got.EqualsApprox(want, faultEqTol)
		checked++
	}
	return cl, equal, checked
}

// Fault measures the fault-injection and recovery layer and writes
// BENCH_fault.json:
//
//  1. Chaos correctness: sessions under transient failures, an executor
//     kill, stragglers, and all three combined, across seeds — every
//     distributed result must match fault-free local execution within
//     1e-9, and the sweep must have actually injected faults.
//  2. Overhead: mapmm wall-clock with an inert fault plan (scheduler on,
//     nothing injected) vs no plan (gate: < 3% — resilience may not tax
//     fault-free runs).
//  3. Recovery: mapmm wall-clock with one of six executors killed at the
//     first task vs fault-free (gate: <= 2.5x — reassignment, not rerun).
func Fault(o Options) *Table {
	reps := o.Reps
	if reps < 3 {
		reps = 3
	}

	// --- Gate 1: chaos correctness sweep. ---
	fast := func(p *dist.FaultPlan) *dist.FaultPlan {
		p.BackoffBase = 10 * time.Microsecond
		p.BackoffCap = 200 * time.Microsecond
		return p
	}
	var runs, checked int
	var transients, retries, kills, stragglers int64
	equal := true
	for seed := int64(1); seed <= 3; seed++ {
		plans := []*dist.FaultPlan{
			fast(&dist.FaultPlan{Seed: seed, TransientRate: 0.15}),
			fast(&dist.FaultPlan{Seed: seed, KillExecutor: int(seed) % 6, KillAtTask: 3 * seed}),
			fast(&dist.FaultPlan{Seed: seed, StragglerRate: 0.05, StragglerDelay: 300 * time.Microsecond}),
			fast(&dist.FaultPlan{Seed: seed, TransientRate: 0.1, KillExecutor: 1, KillAtTask: 7,
				StragglerRate: 0.03, StragglerDelay: 200 * time.Microsecond}),
		}
		for _, plan := range plans {
			cl, eq, n := faultChaosSession(o, plan, seed)
			st := cl.FaultStats()
			transients += st.TransientInjected
			retries += st.Retries
			kills += st.Kills
			stragglers += st.StragglersInjected
			equal = equal && eq
			runs++
			checked += n
		}
	}
	injected := transients > 0 && retries > 0 && kills > 0 && stragglers > 0
	chaosPass := equal && injected

	// --- Gates 2+3 share the workload: a broadcast mapmm. ---
	a := matrix.Rand(o.rows(20000), 100, 1, -1, 1, 26)
	b := matrix.Rand(100, 50, 1, -1, 1, 27)
	mm := &hop.Hop{Kind: hop.OpMatMult, Rows: int64(a.Rows), Cols: int64(b.Cols)}
	run := func(cl *dist.Cluster) {
		out, ok := cl.ExecHop(mm, []*matrix.Matrix{a, b}, obs.Span{})
		if !ok {
			panic("fault bench: matmult degraded unexpectedly")
		}
		out.Release()
	}

	// --- Gate 2: inert-plan overhead, interleaved minimums. ---
	plain := dist.NewCluster()
	inert := dist.NewCluster(dist.WithFaultPlan(&dist.FaultPlan{Seed: 1}))
	run(plain)
	run(inert)
	offMin, onMin := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < reps*3; i++ {
		start := time.Now()
		run(plain)
		if d := time.Since(start); d < offMin {
			offMin = d
		}
		start = time.Now()
		run(inert)
		if d := time.Since(start); d < onMin {
			onMin = d
		}
	}
	overheadPct := 100 * (float64(onMin) - float64(offMin)) / float64(offMin)

	// --- Gate 3: single-kill recovery wall-clock. ---
	// Fresh cluster per killed rep: the scheduled kill fires once per
	// cluster lifetime. The fault-free baseline runs the same scheduler
	// with the kill disarmed, so the ratio isolates recovery cost.
	freeMin, killMin := time.Duration(1<<62), time.Duration(1<<62)
	recoveryEqual := true
	for i := 0; i < reps*3; i++ {
		free := dist.NewCluster(dist.WithFaultPlan(&dist.FaultPlan{Seed: 1}))
		start := time.Now()
		run(free)
		if d := time.Since(start); d < freeMin {
			freeMin = d
		}
		killed := dist.NewCluster(dist.WithFaultPlan(
			&dist.FaultPlan{Seed: 1, KillExecutor: 2, KillAtTask: 1}))
		start = time.Now()
		out, ok := killed.ExecHop(mm, []*matrix.Matrix{a, b}, obs.Span{})
		d := time.Since(start)
		if !ok {
			panic("fault bench: killed run degraded")
		}
		if d < killMin {
			killMin = d
		}
		if i == 0 {
			want := matrix.MatMult(a, b)
			recoveryEqual = out.EqualsApprox(want, faultEqTol)
			want.Release()
			if killed.FaultStats().Kills != 1 {
				panic("fault bench: scheduled kill did not fire")
			}
		}
		out.Release()
	}
	recoveryX := float64(killMin) / float64(freeMin)

	res := FaultResult{
		ChaosRuns:      runs,
		ChaosChecked:   checked,
		ChaosTransient: transients,
		ChaosRetries:   retries,
		ChaosKills:     kills,
		ChaosStraggler: stragglers,
		ChaosPass:      chaosPass,
		OverheadOffMS:  float64(offMin.Nanoseconds()) / 1e6,
		OverheadOnMS:   float64(onMin.Nanoseconds()) / 1e6,
		OverheadPct:    overheadPct,
		OverheadPass:   overheadPct < faultMaxOverheadPct,
		RecoveryFreeMS: float64(freeMin.Nanoseconds()) / 1e6,
		RecoveryKillMS: float64(killMin.Nanoseconds()) / 1e6,
		RecoveryX:      recoveryX,
		RecoveryPass:   recoveryX <= faultMaxRecoveryX && recoveryEqual,
	}
	res.Pass = res.ChaosPass && res.OverheadPass && res.RecoveryPass
	if data, err := json.MarshalIndent(res, "", "  "); err == nil {
		if err := os.WriteFile(faultFile, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(o.Out, "fault: cannot write %s: %v\n", faultFile, err)
		}
	}

	t := &Table{
		Title:   "Fault-tolerance gates: chaos correctness, scheduler overhead, kill recovery",
		Columns: []string{"gate", "baseline", "faulty", "delta", "pass"},
	}
	t.Add("chaos == local", fmt.Sprintf("%d checks", checked),
		fmt.Sprintf("inj %d/%d/%d/%d", transients, kills, stragglers, retries),
		fmt.Sprintf("tol %g", faultEqTol), fmt.Sprintf("%v", chaosPass))
	t.Add("inert overhead", ms(offMin), ms(onMin),
		fmt.Sprintf("%+.2f%% (limit <%.0f%%)", overheadPct, faultMaxOverheadPct),
		fmt.Sprintf("%v", res.OverheadPass))
	t.Add("1-of-6 kill", ms(freeMin), ms(killMin),
		fmt.Sprintf("%.2fx (limit <=%.1fx)", recoveryX, faultMaxRecoveryX),
		fmt.Sprintf("%v", res.RecoveryPass))
	return t
}
