package dml

import (
	"math"
	"strings"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/matrix"
)

// TestReoptCorrectsSparsityHint: binding a 2%-sparse matrix with a
// claimed-dense nonzero hint forces a dense plan; after the first
// execution the runtime feedback must drop the lying hint, invalidate the
// cached block plan, and re-optimize into the sparsity-exploiting Outer
// plan — with identical results before and after the switch.
func TestReoptCorrectsSparsityHint(t *testing.T) {
	s := newTestSession(codegen.ModeGen)
	const n, rank = 128, 16
	x := matrix.Rand(n, n, 0.02, 1, 2, 1)
	s.BindWithNnz("X", x, n*n) // lie: claim every cell is nonzero
	s.Bind("U", matrix.Rand(n, rank, 1, 0.1, 1, 2))
	s.Bind("V", matrix.Rand(n, rank, 1, 0.1, 1, 3))
	script := `s = sum(X * log(U %*% t(V) + 1e-15))`

	// Under the dense lie the optimizer must not pick the Outer template.
	before, err := s.Explain(script)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(before, "Outer") {
		t.Fatalf("dense-hinted plan already uses Outer:\n%s", before)
	}

	if err := s.Run(script); err != nil {
		t.Fatal(err)
	}
	first, _ := s.Scalar("s")
	if err := s.Run(script); err != nil {
		t.Fatal(err)
	}
	second, _ := s.Scalar("s")
	if math.Abs(first-second) > 1e-6*math.Abs(first) {
		t.Errorf("result changed across re-optimization: %g vs %g", first, second)
	}

	snap := s.Metrics()
	if got := snap.Counters["reopt.sparsity"]; got < 1 {
		t.Errorf("reopt.sparsity = %d, want >= 1", got)
	}
	if got := snap.Counters["reopt.invalidations"]; got < 1 {
		t.Errorf("reopt.invalidations = %d, want >= 1", got)
	}

	// With the hint dropped the optimizer sees the true nonzero count.
	after, err := s.Explain(script)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(after, "Outer") {
		t.Errorf("re-optimized plan does not use Outer:\n%s", after)
	}
}

// TestReoptDisabled: with Reopt.Enabled=false the lying hint persists —
// no counters move and the plan stays dense.
func TestReoptDisabled(t *testing.T) {
	cfg := codegen.DefaultConfig()
	cfg.Reopt.Enabled = false
	s := newTestSessionCfg(cfg)
	const n, rank = 128, 16
	s.BindWithNnz("X", matrix.Rand(n, n, 0.02, 1, 2, 1), n*n)
	s.Bind("U", matrix.Rand(n, rank, 1, 0.1, 1, 2))
	s.Bind("V", matrix.Rand(n, rank, 1, 0.1, 1, 3))
	script := `s = sum(X * log(U %*% t(V) + 1e-15))`
	for i := 0; i < 2; i++ {
		if err := s.Run(script); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Metrics()
	for _, c := range []string{"reopt.sparsity", "reopt.time", "reopt.invalidations"} {
		if got := snap.Counters[c]; got != 0 {
			t.Errorf("%s = %d with re-optimization disabled", c, got)
		}
	}
	after, err := s.Explain(script)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(after, "Outer") {
		t.Error("hint dropped despite Reopt.Enabled=false")
	}
}

// TestReoptAccurateHintStable: a truthful hint must not trigger
// re-optimization — the divergence factor guards against thrash.
func TestReoptAccurateHintStable(t *testing.T) {
	s := newTestSession(codegen.ModeGen)
	const n, rank = 128, 16
	x := matrix.Rand(n, n, 0.02, 1, 2, 1)
	s.BindWithNnz("X", x, int64(x.Nnz()))
	s.Bind("U", matrix.Rand(n, rank, 1, 0.1, 1, 2))
	s.Bind("V", matrix.Rand(n, rank, 1, 0.1, 1, 3))
	script := `s = sum(X * log(U %*% t(V) + 1e-15))`
	for i := 0; i < 3; i++ {
		if err := s.Run(script); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Metrics().Counters["reopt.sparsity"]; got != 0 {
		t.Errorf("reopt.sparsity = %d for a truthful hint", got)
	}
}

// timeDivergent is a script whose loop body a cost model a thousand times
// too fast mis-predicts by far more than the time factor (8x) once MinSec is
// out of the way.
const timeDivergent = `
	acc = 0
	i = 0
	while (i < 6) {
		acc = acc + sum(X * Y + abs(X - Y))
		i = i + 1
	}`

// tooFast is the default cost model with every rate a thousand times too
// high: every prediction diverges from the measured time. Only ratios of the
// constants choose plans, so the plans are the default ones.
func tooFast() codegen.CostModel {
	m := codegen.DefaultCostModel()
	m.ReadBW, m.WriteBW, m.ComputeBW = m.ReadBW*1e3, m.WriteBW*1e3, m.ComputeBW*1e3
	return m
}

func timeTriggerSession() *Session {
	cfg := codegen.DefaultConfig()
	cfg.Reopt.MinSec = 0
	cfg.Costs = tooFast()
	s := newTestSessionCfg(cfg)
	s.Bind("X", matrix.Rand(2000, 16, 1, -1, 1, 4))
	s.Bind("Y", matrix.Rand(2000, 16, 1, -1, 1, 5))
	return s
}

// TestReoptTimeKeepsThePlan: the constants cannot move at run time,
// so re-optimizing a block whose time diverged could only derive its plan
// again. The trigger counts the divergence and leaves the plan cached: the
// optimizer's work repeats exactly from run to run, whatever the clock says.
func TestReoptTimeKeepsThePlan(t *testing.T) {
	var first [3]int64
	for run := 0; run < 3; run++ {
		s := timeTriggerSession()
		if err := s.Run(timeDivergent); err != nil {
			t.Fatal(err)
		}
		snap := s.Metrics()
		if snap.Counters["reopt.time"] == 0 {
			t.Fatal("reopt.time = 0: the trigger never fired, the test shows nothing")
		}
		if n := snap.Counters["reopt.invalidations"]; n != 0 {
			t.Errorf("reopt.invalidations = %d: a time divergence discarded a plan", n)
		}
		// The block before the loop, the body twice (acc and i leave zero),
		// and the iterations after that find it planned.
		if s.Blocks != 3 || s.BlockCacheHits != 4 {
			t.Errorf("%d blocks optimized, %d found planned, want 3 and 4", s.Blocks, s.BlockCacheHits)
		}
		got := [3]int64{s.Blocks, s.Stats.PlansEvaluated, s.Stats.OperatorsCompiled}
		if run == 0 {
			first = got
		} else if got != first {
			t.Errorf("run %d: blocks, plans evaluated, operators compiled = %v, first run %v", run, got, first)
		}
	}
}

// newTestSessionCfg builds a quiet session from an explicit config.
func newTestSessionCfg(cfg codegen.Config) *Session {
	s := NewSession(cfg)
	s.Out = &nullWriter{}
	return s
}

type nullWriter struct{}

func (*nullWriter) Write(p []byte) (int, error) { return len(p), nil }
