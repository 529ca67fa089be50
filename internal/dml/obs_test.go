package dml

import (
	"context"
	"errors"
	"io"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"sysml/internal/codegen"
	"sysml/internal/dist"
	"sysml/internal/matrix"
)

var (
	costRe  = regexp.MustCompile(`estimated cost: [0-9.e+-]+`)
	classRe = regexp.MustCompile(`TMP\d+`)
	poolRe  = regexp.MustCompile(`(?s)\nBUFFER POOL \(this run\)\n.*$`)
)

// normalizeExplain strips the non-deterministic parts of an EXPLAIN
// report: analytical cost values (stable for a fixed config but tied to
// cost-model constants), compiled class names (a process-global counter),
// and the buffer-pool section (counters depend on process-wide pool state).
func normalizeExplain(s string) string {
	s = costRe.ReplaceAllString(s, "estimated cost: #")
	s = classRe.ReplaceAllString(s, "TMP#")
	s = poolRe.ReplaceAllString(s, "")
	return s
}

func TestExplainGolden(t *testing.T) {
	s := NewSession(codegen.DefaultConfig())
	s.Bind("X", matrix.Rand(2000, 100, 1, -1, 1, 7))
	s.Bind("v", matrix.Rand(100, 1, 1, -1, 1, 8))
	text, err := s.Explain("s = sum(X * X)\nw = t(X) %*% (X %*% v)")
	if err != nil {
		t.Fatal(err)
	}
	want := `# EXPLAIN block 1
mode: Gen
hops before fusion:
  1 data(X) [] 2000x100 nnz=200000 LOCAL
  2 b(*) [1,1] 2000x100 nnz=200000 LOCAL
  3 ua(sum) [2] 1x1 nnz=1 LOCAL
  4 r(t) [1] 100x2000 nnz=200000 LOCAL
  5 data(v) [] 100x1 nnz=100 LOCAL
  6 ba(+*) [1,5] 2000x1 nnz=2000 LOCAL
  7 ba(+*) [4,6] 100x1 nnz=100 LOCAL
partition 0: 2 nodes, 0 interesting points
  plans: evaluated 0 of 1 hypothetical, materialized 0 points
  estimated cost: #
partition 1: 3 nodes, 0 interesting points
  plans: evaluated 0 of 1 hypothetical, materialized 0 points
  estimated cost: #
COMPRESSED: 1 inputs considered
  X 2000x100: estimated ratio 1.00 < 3.00
fused operators: 2 (Cell, Row)
  Row TMP#: 2 inputs, 100x1 output compressed: fallback (row template reads matrix side inputs per row)
  Cell TMP#: 1 inputs, 1x1 output compressed: eligible
plan cache: 0 hits, 2 misses, 0 evictions
hops after fusion:
  1 data(X) [] 2000x100 nnz=200000 LOCAL
  5 data(v) [] 100x1 nnz=100 LOCAL
  8 spoof(Row) [1,5] 100x1 nnz=100 LOCAL
  9 spoof(Cell) [1] 1x1 nnz=1 LOCAL
`
	if got := normalizeExplain(text); got != want {
		t.Errorf("explain mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExplainBufferPoolSection checks that EXPLAIN reports the buffer-pool
// lifecycle of the run it shadows.
func TestExplainBufferPoolSection(t *testing.T) {
	s := NewSession(codegen.DefaultConfig())
	s.Bind("X", matrix.Rand(500, 100, 1, -1, 1, 7))
	text, err := s.Explain("Y = X * 2\nZ = Y + 1\nq = sum(Z %*% t(Z))")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BUFFER POOL (this run)", "pooled allocations:", "buffers returned:", "bytes recycled:"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain output missing %q:\n%s", want, text)
		}
	}
}

// TestExplainRunSectionsReportThisRun: two Explains of one script against
// one cluster and one buffer pool each report their own run's shuffle
// volume and pooled allocations, not the totals since the cluster and the
// pool began.
func TestExplainRunSectionsReportThisRun(t *testing.T) {
	cl := dist.NewCluster(dist.WithExecutors(3))
	x := matrix.Rand(900, 14, 1, -1, 1, 61)
	cfg := codegen.DefaultConfig()
	cfg.Exec.MemBudgetBytes = x.SizeBytes() / 2
	s := NewSession(cfg)
	s.Dist = cl
	s.Alloc = matrix.NewBufPool(0)
	s.Bind("X", x)
	s.Bind("W", matrix.Rand(20, 20, 1, -1, 1, 62)) // W %*% W runs locally, from s.Alloc
	field := func(text, label string) int64 {
		m := regexp.MustCompile(label + `\s+(\d+)`).FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("report lacks %q:\n%s", label, text)
		}
		v, _ := strconv.ParseInt(m[1], 10, 64)
		return v
	}
	for run := 1; run <= 2; run++ {
		shuffled, gets := cl.BytesShuffled(), s.Alloc.Stats().Gets
		text, err := s.Explain("Y = abs(X) * 2\nz = colSums(Y)\nV = W %*% W\nprint(sum(z) + sum(V))")
		if err != nil {
			t.Fatal(err)
		}
		shuffled, gets = cl.BytesShuffled()-shuffled, s.Alloc.Stats().Gets-gets
		if shuffled == 0 || gets == 0 {
			t.Fatalf("run %d shuffled %d bytes and made %d pooled allocations; the test needs both", run, shuffled, gets)
		}
		if got := field(text, "bytes shuffled:"); got != shuffled {
			t.Errorf("run %d: report says %d bytes shuffled, the run shuffled %d", run, got, shuffled)
		}
		if got := field(text, "pooled allocations:"); got != gets {
			t.Errorf("run %d: report says %d pooled allocations, the run made %d", run, got, gets)
		}
	}
}

func TestExplainLeavesSessionUntouched(t *testing.T) {
	s := NewSession(codegen.DefaultConfig())
	s.Bind("X", matrix.Rand(100, 10, 1, -1, 1, 7))
	if _, err := s.Explain(`y = sum(X * X)`); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Env["y"]; ok {
		t.Error("Explain leaked result variables into the session environment")
	}
	if s.Blocks != 0 || s.Stats.DAGsOptimized != 0 {
		t.Errorf("Explain mutated session stats: blocks=%d dags=%d", s.Blocks, s.Stats.DAGsOptimized)
	}
}

func TestRunContextCancel(t *testing.T) {
	s := NewSession(codegen.DefaultConfig())
	s.Out = io.Discard

	// Pre-canceled context: nothing runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.RunContext(ctx, `y = 1 + 1`); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run returned %v, want context.Canceled", err)
	}
	if _, ok := s.Env["y"]; ok {
		t.Fatal("pre-canceled run still assigned a variable")
	}

	// Cancel mid-script: a long while loop of large fused operators must
	// abort promptly rather than running all iterations.
	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		done <- s.RunContext(ctx, `
			X = rand(rows=500, cols=500, seed=1)
			i = 0
			acc = 0
			while (i < 100000) {
				acc = acc + sum(X * X + i)
				i = i + 1
			}
		`)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled run returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled run did not return")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v, expected prompt abort", elapsed)
	}
}

func TestTypedErrors(t *testing.T) {
	s := NewSession(codegen.DefaultConfig())
	s.Out = io.Discard

	var pe *ParseError
	err := s.Run(`x = `)
	if !errors.As(err, &pe) {
		t.Fatalf("syntax error: got %T (%v), want *ParseError", err, err)
	}
	if pe.Line != 1 {
		t.Errorf("ParseError.Line = %d, want 1", pe.Line)
	}
	if !errors.Is(err, &ParseError{}) {
		t.Error("errors.Is class match failed for ParseError")
	}

	var ue *UnboundVarError
	err = s.Run("\ny = missing + 1")
	if !errors.As(err, &ue) {
		t.Fatalf("unbound var: got %T (%v), want *UnboundVarError", err, err)
	}
	if ue.Name != "missing" || ue.Line != 2 {
		t.Errorf("UnboundVarError = %+v, want {Line:2 Name:missing}", ue)
	}

	var se *ShapeError
	s.Bind("A", matrix.Rand(3, 4, 1, 0, 1, 1))
	s.Bind("B", matrix.Rand(3, 4, 1, 0, 1, 2))
	err = s.Run(`C = A %*% B`)
	if !errors.As(err, &se) {
		t.Fatalf("matmul mismatch: got %T (%v), want *ShapeError", err, err)
	}
	if !strings.Contains(se.Error(), "3x4 vs 3x4") {
		t.Errorf("ShapeError message = %q", se.Error())
	}

	// Get/Scalar return the same typed errors.
	if _, err := s.Get("nope"); !errors.Is(err, &UnboundVarError{}) {
		t.Errorf("Get missing: got %v, want UnboundVarError", err)
	}
	if _, err := s.Scalar("nope"); !errors.Is(err, &UnboundVarError{}) {
		t.Errorf("Scalar missing: got %v, want UnboundVarError", err)
	}
	if _, err := s.Scalar("A"); !errors.Is(err, &ShapeError{}) {
		t.Errorf("Scalar on matrix: got %v, want ShapeError", err)
	}
}

func TestSessionMetrics(t *testing.T) {
	// Exact cache-hit accounting: time-triggered re-optimization would
	// legitimately invalidate cached blocks on slow runners (-race), so
	// pin it off here.
	cfg := codegen.DefaultConfig()
	cfg.Reopt.Enabled = false
	s := NewSession(cfg)
	s.Out = io.Discard
	s.Bind("X", matrix.Rand(2000, 100, 1, -1, 1, 7))
	s.Bind("v", matrix.Rand(100, 1, 1, -1, 1, 8))
	script := "s = sum(X * X)\nw = t(X) %*% (X %*% v)"
	for i := 0; i < 3; i++ {
		if err := s.Run(script); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Metrics()
	if snap.Counter("exec.ops") == 0 {
		t.Error("no operators recorded")
	}
	if got := snap.Counter("spoof.invocations"); got != 6 {
		t.Errorf("spoof.invocations = %d, want 6 (2 fused ops x 3 runs)", got)
	}
	if snap.Counter("spoof.Cell") != 3 || snap.Counter("spoof.Row") != 3 {
		t.Errorf("per-template counts = Cell:%d Row:%d, want 3/3",
			snap.Counter("spoof.Cell"), snap.Counter("spoof.Row"))
	}
	if snap.Counter("block.cache.misses") != 1 || snap.Counter("block.cache.hits") != 2 {
		t.Errorf("block cache misses=%d hits=%d, want 1/2",
			snap.Counter("block.cache.misses"), snap.Counter("block.cache.hits"))
	}
	if snap.Counter("codegen.operators.compiled") == 0 {
		t.Error("codegen stats not merged into snapshot")
	}
	for _, phase := range []string{"phase.parse", "phase.compile", "phase.optimize", "phase.execute"} {
		if snap.Hist(phase).Count == 0 {
			t.Errorf("missing %s histogram", phase)
		}
	}
	if snap.Hist("phase.execute").Sum <= 0 {
		t.Error("execute phase recorded no time")
	}
	if snap.Counter("exec.est.flops") == 0 || snap.Counter("exec.actual.bytes") == 0 {
		t.Error("estimate/actual counters not recorded")
	}
}
