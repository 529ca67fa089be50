package dist

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"sysml/internal/codegen"
	"sysml/internal/dml"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/obs"
)

// fastBackoff keeps chaos sweeps quick: microsecond backoff, same logic.
func fastBackoff(p *FaultPlan) *FaultPlan {
	p.BackoffBase = time.Microsecond
	p.BackoffCap = 50 * time.Microsecond
	return p
}

// chaosOps runs one operator of every scheduler shape (pure map, map with
// broadcast side, tree-reduced aggregates, broadcast mapmm) on cl and
// checks each distributed result against the local kernel within 1e-9.
// ok=false results (degradation) are tolerated when allowDegrade is set —
// the runtime would recompute locally — but silent corruption never is. It
// returns the results in case order, nil where an operator degraded.
func chaosOps(t *testing.T, tag string, cl *Cluster, x *matrix.Matrix, allowDegrade bool) []*matrix.Matrix {
	t.Helper()
	w := matrix.Rand(x.Cols, 4, 1, -1, 1, 99)
	rv := matrix.Rand(1, x.Cols, 1, 1, 2, 98)
	cases := []struct {
		name string
		h    *hop.Hop
		ins  []*matrix.Matrix
		want *matrix.Matrix
	}{
		{"abs", &hop.Hop{Kind: hop.OpUnary, UnOp: matrix.UnAbs, Cols: int64(x.Cols)},
			[]*matrix.Matrix{x}, matrix.Unary(matrix.UnAbs, x)},
		{"div/rowvec", &hop.Hop{Kind: hop.OpBinary, BinOp: matrix.BinDiv, Cols: int64(x.Cols)},
			[]*matrix.Matrix{x, rv}, matrix.Binary(matrix.BinDiv, x, rv)},
		{"sum", &hop.Hop{Kind: hop.OpAggUnary, AggOp: matrix.AggSum, AggDir: matrix.DirAll},
			[]*matrix.Matrix{x}, matrix.Agg(matrix.AggSum, matrix.DirAll, x)},
		{"colSums", &hop.Hop{Kind: hop.OpAggUnary, AggOp: matrix.AggSum, AggDir: matrix.DirCol},
			[]*matrix.Matrix{x}, matrix.Agg(matrix.AggSum, matrix.DirCol, x)},
		{"mapmm", &hop.Hop{Kind: hop.OpMatMult, Rows: int64(x.Rows), Cols: 4},
			[]*matrix.Matrix{x, w}, matrix.MatMult(x, w)},
	}
	results := make([]*matrix.Matrix, len(cases))
	for i, tc := range cases {
		got, ok := cl.ExecHop(tc.h, tc.ins, obs.Span{})
		if !ok {
			if allowDegrade {
				continue
			}
			t.Fatalf("%s %s: unexpected degradation", tag, tc.name)
		}
		if !got.EqualsApprox(tc.want, 1e-9) {
			t.Fatalf("%s %s: faulty distributed result differs from local", tag, tc.name)
		}
		results[i] = got
	}
	return results
}

// TestNoPlanAndZeroPlanRunOneScheduler: a cluster without a plan and one
// with the zero plan run the same scheduler with nothing injected, so every
// operator kind gives bit-identical results and all-zero FaultStats. A kill
// at the first task moves the dead executor's panels to survivors, with
// results equal to local within 1e-9.
func TestNoPlanAndZeroPlanRunOneScheduler(t *testing.T) {
	x := matrix.Rand(257, 12, 1, -2, 2, 71)
	var runs [][]*matrix.Matrix
	for _, cl := range []*Cluster{NewCluster(), NewCluster(WithFaultPlan(&FaultPlan{}))} {
		cl.Blocksize = 16
		runs = append(runs, chaosOps(t, fmt.Sprintf("plan=%v", cl.FaultActive()), cl, x, false))
		if st := cl.FaultStats(); st != (FaultStats{}) {
			t.Fatalf("plan=%v: nothing injected, yet %+v", cl.FaultActive(), st)
		}
	}
	for i := range runs[0] {
		if !runs[0][i].EqualsApprox(runs[1][i], 0) {
			t.Fatalf("operator %d: the nil and the zero plan disagree", i)
		}
	}
	cl := NewCluster(WithFaultPlan(&FaultPlan{KillExecutor: 3, KillAtTask: 1}))
	cl.Blocksize = 16
	chaosOps(t, "kill=3@1", cl, x, false)
	if st := cl.FaultStats(); st.Kills != 1 || st.Reassigned == 0 || st.Degraded != 0 {
		t.Fatalf("kill at the first task: %+v, want one kill, reassigned panels, no degradation", st)
	}
}

// TestChaosMatchesLocal is the chaos property sweep: seeds × executor
// counts × kill points × transient and straggler rates, every combination
// required to produce results identical to local execution (within 1e-9 —
// map-only stages are bit-identical; tree reductions reassociate). The sweep
// also asserts the injection actually happened: a chaos suite that never
// injects a fault tests nothing.
func TestChaosMatchesLocal(t *testing.T) {
	x := matrix.Rand(257, 12, 1, -2, 2, 42)
	var transients, stragglers, kills, reassigned, retries int64
	type rates struct{ transient, straggler float64 }
	for seed := int64(1); seed <= 4; seed++ {
		for _, execs := range []int{3, 6} {
			for _, kill := range []struct{ exec, at int }{{-1, 0}, {0, 1}, {1, 5}, {2, 12}} {
				for _, rate := range []rates{{0, 0}, {0.2, 0}, {0.1, 0.1}} {
					if rate == (rates{}) && kill.at == 0 {
						continue // nothing injected; covered by overhead tests
					}
					plan := fastBackoff(&FaultPlan{
						Seed:           seed,
						TransientRate:  rate.transient,
						StragglerRate:  rate.straggler,
						StragglerDelay: 20 * time.Microsecond,
						KillExecutor:   kill.exec,
						KillAtTask:     int64(kill.at),
					})
					cl := NewCluster(WithFaultPlan(plan), WithExecutors(execs))
					cl.Blocksize = 16
					tag := fmt.Sprintf("seed=%d e=%d kill=%d@%d rate=%.1f straggle=%.1f",
						seed, execs, kill.exec, kill.at, rate.transient, rate.straggler)
					chaosOps(t, tag, cl, x, false)
					st := cl.FaultStats()
					transients += st.TransientInjected
					stragglers += st.StragglersInjected
					kills += st.Kills
					reassigned += st.Reassigned
					retries += st.Retries
					if kill.at > 0 && st.Kills != 1 {
						t.Fatalf("%s: kills = %d, want exactly 1", tag, st.Kills)
					}
					if st.Degraded != 0 {
						t.Fatalf("%s: unexpected degradation (%d)", tag, st.Degraded)
					}
					if len(cl.DeadExecutors()) != int(st.Kills) {
						t.Fatalf("%s: DeadExecutors()=%v vs kills=%d",
							tag, cl.DeadExecutors(), st.Kills)
					}
				}
			}
		}
	}
	if transients == 0 || stragglers == 0 || kills == 0 || reassigned == 0 || retries == 0 {
		t.Fatalf("chaos sweep injected nothing: transients=%d stragglers=%d kills=%d reassigned=%d retries=%d",
			transients, stragglers, kills, reassigned, retries)
	}
}

// TestPanickingKernelReachesTheCaller: a panel kernel that panics ends its
// stage — the executors waiting for that task stop — and the panic reaches
// the caller of runPanels instead of leaving the stage hung.
func TestPanickingKernelReachesTheCaller(t *testing.T) {
	for _, execs := range []int{1, 6} {
		cl := NewCluster(WithExecutors(execs))
		cl.Blocksize = 16
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d executors: the kernel's panic was lost", execs)
				}
			}()
			cl.runPanels(obs.Span{}, 400, func(p, _, _ int) {
				if p == 3 {
					panic("kernel")
				}
			})
		}()
	}
}

// TestFaultInjectionDeterminism pins the seedable-plan contract: two
// clusters running the same plan over the same operator sequence inject
// the same faults, and a different seed injects a different pattern.
func TestFaultInjectionDeterminism(t *testing.T) {
	x := matrix.Rand(257, 12, 1, -2, 2, 7)
	run := func(seed int64) FaultStats {
		cl := NewCluster(WithFaultPlan(fastBackoff(&FaultPlan{Seed: seed, TransientRate: 0.25})))
		cl.Blocksize = 16
		chaosOps(t, fmt.Sprintf("seed=%d", seed), cl, x, false)
		return cl.FaultStats()
	}
	a, b, c := run(3), run(3), run(4)
	if a.TransientInjected == 0 {
		t.Fatal("plan injected no transient faults")
	}
	if a.TransientInjected != b.TransientInjected || a.Retries != b.Retries {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.TransientInjected == c.TransientInjected && a.Retries == c.Retries {
		t.Fatalf("different seeds injected identical fault pattern: %+v", a)
	}
}

// TestKillReshipsBroadcasts checks broadcast recovery on executor loss:
// the side input's handle was cached before the kill, and the kill charges
// a re-shipment of every cached handle (the survivors re-fetch the blocks
// the dead executor held) while keeping the handle cached.
func TestKillReshipsBroadcasts(t *testing.T) {
	x := matrix.Rand(500, 8, 1, -1, 1, 11)
	w := matrix.Rand(8, 3, 1, -1, 1, 12)
	h := &hop.Hop{Kind: hop.OpMatMult, Rows: 500, Cols: 3}
	cl := NewCluster(WithFaultPlan(&FaultPlan{Seed: 1}))
	cl.Blocksize = 16
	if _, ok := cl.ExecHop(h, []*matrix.Matrix{x, w}, obs.Span{}); !ok {
		t.Fatal("warmup degraded")
	}
	before := cl.BytesBroadcast()
	// Arm the kill only now, so the warmup broadcast is already cached.
	cl.SetFaultPlan(&FaultPlan{Seed: 1, KillExecutor: 2, KillAtTask: 1})
	got, ok := cl.ExecHop(h, []*matrix.Matrix{x, w}, obs.Span{})
	if !ok {
		t.Fatal("kill run degraded")
	}
	if !got.EqualsApprox(matrix.MatMult(x, w), 1e-9) {
		t.Fatal("result wrong after executor kill")
	}
	st := cl.FaultStats()
	if st.Kills != 1 || st.BcastReships == 0 || st.BcastReshipBytes == 0 {
		t.Fatalf("kill did not re-ship broadcasts: %+v", st)
	}
	if cl.BytesBroadcast() != before+st.BcastReshipBytes {
		t.Fatalf("re-ship bytes not charged to broadcast volume: %d -> %d (reship %d)",
			before, cl.BytesBroadcast(), st.BcastReshipBytes)
	}
	if hits, _, _ := cl.BroadcastCacheStats(); hits < 1 {
		t.Fatal("handle evicted by kill; survivors' replicas should keep it cached")
	}
}

// TestSpeculativeExecution forces one straggling panel (large injected
// delay) among many fast ones and requires the scheduler to launch a
// speculative duplicate that wins and cancels the sleeping original.
func TestSpeculativeExecution(t *testing.T) {
	x := matrix.Rand(600, 8, 1, -1, 1, 21)
	for seed := int64(1); seed <= 40; seed++ {
		plan := &FaultPlan{
			Seed:           seed,
			StragglerRate:  0.04,
			StragglerDelay: 250 * time.Millisecond,
			SpecMultiple:   2,
		}
		cl := NewCluster(WithFaultPlan(plan))
		cl.Blocksize = 16
		h := &hop.Hop{Kind: hop.OpUnary, UnOp: matrix.UnAbs, Cols: 8}
		got, ok := cl.ExecHop(h, []*matrix.Matrix{x}, obs.Span{})
		if !ok {
			t.Fatalf("seed %d: degraded", seed)
		}
		if !got.EqualsApprox(matrix.Unary(matrix.UnAbs, x), 1e-9) {
			t.Fatalf("seed %d: speculative result differs from local", seed)
		}
		st := cl.FaultStats()
		if st.StragglersInjected == 0 {
			continue // this seed drew no straggler; try the next
		}
		if st.SpecLaunched == 0 {
			t.Fatalf("seed %d: straggler injected but no speculation launched: %+v", seed, st)
		}
		if st.SpecWins == 0 {
			t.Fatalf("seed %d: speculation launched but the 250ms straggler beat it: %+v", seed, st)
		}
		return
	}
	t.Fatal("no seed in 1..40 injected a straggler at rate 0.04 over ~24 panels")
}

// TestDegradeToLocalFallback exhausts recovery (certain transient failure)
// and checks graceful degradation end to end: ExecHop reports ok=false
// instead of wrong data, the session transparently recomputes on the local
// backend, the run completes with correct results, and the dist.degraded
// marker lands in the session metrics.
func TestDegradeToLocalFallback(t *testing.T) {
	cl := NewCluster(WithFaultPlan(fastBackoff(&FaultPlan{
		Seed:          5,
		TransientRate: 1, // every attempt fails: budget must exhaust
		RetryBudget:   8,
	})))
	cl.Blocksize = 16
	x := matrix.Rand(400, 10, 1, -1, 1, 31)
	h := &hop.Hop{Kind: hop.OpUnary, UnOp: matrix.UnAbs, Cols: 10}
	if _, ok := cl.ExecHop(h, []*matrix.Matrix{x}, obs.Span{}); ok {
		t.Fatal("certain failure did not degrade")
	}
	if st := cl.FaultStats(); st.Degraded != 1 {
		t.Fatalf("degraded = %d, want 1", st.Degraded)
	}

	cfg := codegen.DefaultConfig()
	cfg.Mode = codegen.ModeBase
	cfg.Exec.MemBudgetBytes = x.SizeBytes() / 2 // force the dist backend
	s := dml.NewSession(cfg)
	s.Dist = cl
	s.Out = io.Discard
	s.Bind("X", x)
	if err := s.Run("y = abs(X)\nprint(sum(y))"); err != nil {
		t.Fatalf("degraded run must complete via local fallback, got %v", err)
	}
	y, err := s.Get("y")
	if err != nil {
		t.Fatal(err)
	}
	if !y.EqualsApprox(matrix.Unary(matrix.UnAbs, x), 1e-9) {
		t.Fatal("local fallback produced a wrong result")
	}
	if got := s.Metrics().Counter("dist.degraded"); got < 1 {
		t.Fatalf("dist.degraded marker missing from metrics: %d", got)
	}
}

// TestMinSurvivorsFloor: killing the only executor of a 1-executor cluster
// leaves the survivor count below the floor, so the operator must degrade
// rather than run on nothing.
func TestMinSurvivorsFloor(t *testing.T) {
	cl := NewCluster(WithFaultPlan(&FaultPlan{Seed: 1, KillExecutor: 0, KillAtTask: 1}),
		WithExecutors(1))
	cl.Blocksize = 16
	x := matrix.Rand(300, 6, 1, -1, 1, 41)
	h := &hop.Hop{Kind: hop.OpUnary, UnOp: matrix.UnAbs, Cols: 6}
	if _, ok := cl.ExecHop(h, []*matrix.Matrix{x}, obs.Span{}); ok {
		t.Fatal("sole-executor kill did not degrade")
	}
	st := cl.FaultStats()
	if st.Kills != 1 || st.Degraded == 0 {
		t.Fatalf("want kill + degradation, got %+v", st)
	}
	// The cluster stays degraded for dist work but keeps answering ok=false,
	// so later operators keep falling back instead of hanging.
	if _, ok := cl.ExecHop(h, []*matrix.Matrix{x}, obs.Span{}); ok {
		t.Fatal("dead cluster accepted work")
	}
}

// TestFaultyClusterConcurrentSessions is the race gate for the fault
// scheduler: concurrent sessions share one faulty cluster (transient
// failures + stragglers + one kill) and every session's results must match
// local execution.
func TestFaultyClusterConcurrentSessions(t *testing.T) {
	cl := NewCluster(WithFaultPlan(fastBackoff(&FaultPlan{
		Seed:           9,
		TransientRate:  0.05,
		StragglerRate:  0.02,
		StragglerDelay: 200 * time.Microsecond,
		KillExecutor:   4,
		KillAtTask:     40,
	})))
	cl.Blocksize = 16
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cfg := codegen.DefaultConfig()
			cfg.Mode = codegen.ModeBase
			x := matrix.Rand(700, 16, 1, -1, 1, seed)
			w := matrix.Rand(16, 4, 1, -1, 1, seed+50)
			cfg.Exec.MemBudgetBytes = x.SizeBytes() / 2
			s := dml.NewSession(cfg)
			s.Dist = cl
			s.Out = io.Discard
			s.Bind("X", x)
			s.Bind("W", w)
			if err := s.Run("acc = X %*% W\ns = sum(abs(acc))\nprint(s)"); err != nil {
				errs <- err
				return
			}
			acc, err := s.Get("acc")
			if err != nil {
				errs <- err
				return
			}
			if !acc.EqualsApprox(matrix.MatMult(x, w), 1e-9) {
				errs <- fmt.Errorf("session %d: faulty dist result differs from local", seed)
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := cl.FaultStats()
	if st.TransientInjected == 0 || st.Kills != 1 {
		t.Fatalf("concurrent chaos injected too little: %+v", st)
	}
}

// TestExplainFaultsSection checks the FAULTS subsection of the DISTRIBUTED
// explain block: a faulty session's Explain report must show the injected
// and recovered fault counts of the shadow run.
func TestExplainFaultsSection(t *testing.T) {
	cl := NewCluster(WithFaultPlan(fastBackoff(&FaultPlan{Seed: 6, TransientRate: 0.2})))
	cl.Blocksize = 16
	cfg := codegen.DefaultConfig()
	cfg.Mode = codegen.ModeBase
	x := matrix.Rand(900, 14, 1, -1, 1, 61)
	cfg.Exec.MemBudgetBytes = x.SizeBytes() / 2
	s := dml.NewSession(cfg)
	s.Dist = cl
	s.Out = io.Discard
	s.Bind("X", x)
	text, err := s.Explain("y = abs(X)\nprint(sum(y))")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DISTRIBUTED (this run)", "FAULTS", "retries", "speculation"} {
		if !strings.Contains(text, want) {
			t.Fatalf("explain output missing %q:\n%s", want, text)
		}
	}
	if cl.FaultStats().TransientInjected == 0 {
		t.Fatal("shadow run injected no faults")
	}
}

// TestFaultCountersResetAndKeys checks Reset clears the fault statistics
// and FaultCounters exposes every metric suffix the interpreter merges.
func TestFaultCountersResetAndKeys(t *testing.T) {
	cl := NewCluster(WithFaultPlan(fastBackoff(&FaultPlan{Seed: 2, TransientRate: 0.3})))
	cl.Blocksize = 16
	x := matrix.Rand(257, 12, 1, -2, 2, 51)
	chaosOps(t, "reset", cl, x, false)
	if cl.FaultStats().TransientInjected == 0 {
		t.Fatal("no faults injected before Reset")
	}
	cl.Reset()
	if st := cl.FaultStats(); st != (FaultStats{}) {
		t.Fatalf("Reset left fault counters: %+v", st)
	}
	for _, k := range []string{
		"fault.transient", "fault.stragglers", "fault.kills", "fault.reassigned",
		"retry.attempts", "retry.backoff.ns", "spec.launched", "spec.wins",
		"bcast.reships", "bcast.reship.bytes", "degraded",
	} {
		if _, ok := cl.FaultCounters()[k]; !ok {
			t.Fatalf("FaultCounters missing %q", k)
		}
	}
	if !cl.FaultActive() {
		t.Fatal("FaultActive false with a plan attached")
	}
	if NewCluster().FaultActive() {
		t.Fatal("FaultActive true without a plan")
	}
}
