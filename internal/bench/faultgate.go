package bench

import (
	"fmt"
	"math"

	"sysml/internal/dist"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/obs"
	"sysml/internal/par"
)

// Fault-tolerance gate thresholds.
const (
	// faultEqTol: the result recovered from an executor kill must match
	// local execution within this tolerance.
	faultEqTol = 1e-9

	// faultMaxOverheadPct: with a fault plan attached but nothing injected
	// (the scheduler runs, no faults fire), wall-clock may exceed the
	// reference panel loop, which has no recovery at all, by at most this
	// percentage.
	faultMaxOverheadPct = 3.0

	// faultMaxRecoveryX: losing one of six executors at the first task may
	// stretch wall-clock by at most this factor over the fault-free run
	// (capacity drops 1/6; recovery adds reassignment, not recomputation
	// of completed panels).
	faultMaxRecoveryX = 2.5
)

// panelMatMultReference is the map stage without recovery, retained as the
// benchmark baseline: the pool loop every stage ran before one scheduler
// served plans and their absence alike. It runs the product's zero-copy
// panel kernel over the cluster's panels on the internal/par pool, capped at
// the executor count.
func panelMatMultReference(cl *dist.Cluster, a, b *matrix.Matrix) *matrix.Matrix {
	out := matrix.NewDense(a.Rows, b.Cols)
	ps := cl.Panels(a.Rows)
	par.ForIndexedLimit(len(ps), 1, cl.NumExecutors, func(_, lo, hi int) {
		for _, p := range ps[lo:hi] {
			matrix.MatMultInto(out.RowView(p[0], p[1]), a.RowView(p[0], p[1]), b)
		}
	})
	return out
}

// Fault measures the fault-injection and recovery layer on a broadcast mapmm:
//
//  1. Overhead: wall-clock with an inert fault plan (the scheduler runs,
//     nothing is injected) vs the reference panel loop (gate: < 3% —
//     resilience may not tax fault-free runs).
//  2. Recovery: wall-clock with one of six executors killed at the first
//     task vs fault-free (gate: <= 2.5x — reassignment, not rerun), and the
//     recovered result against local execution (gate: within 1e-9).
//
// That results under injected faults equal local ones is a Tier-1 test
// (EXPERIMENTS.md, "fault").
func Fault(o Options) []Check {
	reps := max(o.Reps, 3)
	a := matrix.Rand(o.rows(20000), 100, 1, -1, 1, 26)
	b := matrix.Rand(100, 50, 1, -1, 1, 27)
	mm := &hop.Hop{Kind: hop.OpMatMult, Rows: int64(a.Rows), Cols: int64(b.Cols)}
	exec := func(cl *dist.Cluster) *matrix.Matrix {
		out, ok := cl.ExecHop(mm, []*matrix.Matrix{a, b}, obs.Span{})
		if !ok {
			panic("fault bench: matmult degraded unexpectedly")
		}
		return out
	}
	run := func(cl *dist.Cluster) { exec(cl).Release() }
	planned := func(p dist.FaultPlan) *dist.Cluster { return dist.NewCluster(dist.WithFaultPlan(&p)) }

	// --- Gate 1: inert-plan overhead. ---
	inert := planned(dist.FaultPlan{Seed: 1})
	over := medianOverhead("scheduler overhead (inert plan)", reps*10, func() { panelMatMultReference(inert, a, b).Release() },
		func() { run(inert) }, faultMaxOverheadPct, "reference loop vs inert plan: ")

	// --- Gate 2: single-kill recovery. ---
	// The scheduled kill fires once per cluster lifetime: a fresh cluster per
	// run. The fault-free baseline runs the same scheduler with the kill
	// disarmed, so the ratio isolates recovery cost.
	kill := dist.FaultPlan{Seed: 1, KillExecutor: 2, KillAtTask: 1}
	rec := interleavedMin(reps*3, func() { run(planned(dist.FaultPlan{Seed: 1})) }, func() { run(planned(kill)) })
	cl := planned(kill)
	got, want := exec(cl), matrix.MatMult(a, b)
	if cl.FaultStats().Kills != 1 {
		panic("fault bench: scheduled kill did not fire")
	}
	return []Check{
		over,
		{Name: "1-of-6 kill recovery", Measured: float64(rec[1]) / float64(rec[0]), Baseline: msec(rec[0]),
			Limit: faultMaxRecoveryX, Cmp: "<=", Unit: "x", Detail: fmt.Sprintf("fault-free %.3f → killed %.3f ms", msec(rec[0]), msec(rec[1]))},
		{Name: "1-of-6 kill == local", Measured: maxRelDiff(got, want), Limit: faultEqTol, Cmp: "<=", Unit: "rel err"},
	}
}

// maxRelDiff is the largest difference between two same-shaped results,
// relative where a cell exceeds 1 in magnitude (EqualsApprox's rule).
func maxRelDiff(a, b *matrix.Matrix) float64 {
	ad, bd := a.ToDense().Dense(), b.ToDense().Dense()
	worst := 0.0
	for i := range ad {
		worst = max(worst, math.Abs(ad[i]-bd[i])/max(1, math.Abs(ad[i]), math.Abs(bd[i])))
	}
	return worst
}
