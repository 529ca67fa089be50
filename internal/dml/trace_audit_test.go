package dml

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/dist"
	"sysml/internal/matrix"
	"sysml/internal/obs"
)

// runTraced executes script in a fresh session with a TraceSink attached
// and returns the exported Chrome trace events.
func runTraced(t *testing.T, cfg codegen.Config, cluster *dist.Cluster,
	bind map[string]*matrix.Matrix, script string) ([]obs.TraceEvent, *obs.TraceSink) {
	t.Helper()
	s := NewSession(cfg)
	s.Out = io.Discard
	ts := obs.NewTraceSink()
	s.Sink = ts
	if cluster != nil {
		s.Dist = cluster
	}
	for n, m := range bind {
		s.Bind(n, m)
	}
	if err := s.Run(script); err != nil {
		t.Fatal(err)
	}
	return ts.Events(), ts
}

// TestTraceGolden validates the Chrome-trace export of a full run: the
// JSON parses, the expected pipeline spans exist, every child nests inside
// its parent both by ID and by time containment, and timestamps are
// monotone (the format contract Perfetto / chrome://tracing rely on).
func TestTraceGolden(t *testing.T) {
	evs, ts := runTraced(t, codegen.DefaultConfig(), nil,
		map[string]*matrix.Matrix{
			"X": matrix.Rand(500, 50, 1, -1, 1, 7),
			"v": matrix.Rand(50, 1, 1, -1, 1, 8),
		},
		"s = sum(X * X)\nw = t(X) %*% (X %*% v)")

	// The export must round-trip as a plain JSON array.
	var buf bytes.Buffer
	if _, err := ts.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(parsed) != len(evs) {
		t.Fatalf("JSON has %d events, Events() has %d", len(parsed), len(evs))
	}

	byID := map[uint64]obs.TraceEvent{}
	count := map[string]int{}
	for _, e := range evs {
		if e.Ph != "X" {
			t.Fatalf("event %q has ph %q, want X", e.Name, e.Ph)
		}
		id := e.Args["span"].(uint64)
		byID[id] = e
		count[e.Name]++
	}
	for _, name := range []string{"run", "parse", "compile", "optimize", "execute"} {
		if count[name] == 0 {
			t.Errorf("missing %q span", name)
		}
	}
	if count["spoof(Cell)"] == 0 || count["spoof(Row)"] == 0 {
		t.Errorf("missing per-operator spans: %v", count)
	}
	if count["enumerate"] == 0 || count["construct"] == 0 {
		t.Errorf("missing optimizer sub-spans: %v", count)
	}

	// Structural nesting: every parent reference resolves, and the child's
	// [ts, ts+dur] interval lies inside the parent's.
	for _, e := range evs {
		pid, ok := e.Args["parent"]
		if !ok {
			if e.Name != "run" {
				t.Errorf("span %q has no parent; only run may be a root", e.Name)
			}
			continue
		}
		p, ok := byID[pid.(uint64)]
		if !ok {
			t.Fatalf("span %q references unknown parent %v", e.Name, pid)
		}
		const slack = 1e-3 // µs; span clocks are captured a few ns apart
		if e.TS+slack < p.TS || e.TS+e.Dur > p.TS+p.Dur+slack {
			t.Errorf("span %q [%g, %g] escapes parent %q [%g, %g]",
				e.Name, e.TS, e.TS+e.Dur, p.Name, p.TS, p.TS+p.Dur)
		}
	}

	// Operator spans hang under an execute phase, with hop/shape attrs.
	for _, e := range evs {
		if e.Name != "spoof(Cell)" {
			continue
		}
		p := byID[e.Args["parent"].(uint64)]
		if p.Name != "execute" {
			t.Errorf("operator span parented to %q, want execute", p.Name)
		}
		if e.Args["rows"] == nil || e.Args["exec"] == nil {
			t.Errorf("operator span missing shape attrs: %v", e.Args)
		}
	}

	// Timestamps are monotone non-decreasing and start at zero.
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("timestamps not monotone at %d: %g after %g",
				i, evs[i].TS, evs[i-1].TS)
		}
	}
	if evs[0].TS != 0 || evs[0].Name != "run" {
		t.Fatalf("first event = %q at ts=%g, want run at 0", evs[0].Name, evs[0].TS)
	}
}

// TestTraceDistSpans forces distributed execution and checks the shuffle /
// broadcast / map stages appear as spans with partition and byte attrs.
func TestTraceDistSpans(t *testing.T) {
	cfg := codegen.DefaultConfig()
	cfg.Exec.MemBudgetBytes = 1 // force ExecDist
	cfg.Exec.Blocksize = 64
	cluster := dist.NewCluster()
	cluster.Blocksize = 64
	// Y is a 1x20 row vector: NOT row-aligned with X, so it must ship as a
	// broadcast (a 500x20 Y would be co-partitioned — sliced, not shipped).
	evs, _ := runTraced(t, cfg, cluster,
		map[string]*matrix.Matrix{
			"X": matrix.Rand(500, 20, 1, -1, 1, 1),
			"Y": matrix.Rand(1, 20, 1, -1, 1, 2),
		},
		"s = sum(X * Y)")

	found := map[string]obs.TraceEvent{}
	for _, e := range evs {
		found[e.Name] = e
	}
	mapSpan, ok := found["dist.map"]
	if !ok {
		t.Fatal("no dist.map span recorded")
	}
	if mapSpan.Args["partitions"] == nil || mapSpan.Args["executors"] == nil {
		t.Errorf("dist.map attrs = %v", mapSpan.Args)
	}
	bc, ok := found["dist.broadcast"]
	if !ok {
		t.Fatal("no dist.broadcast span recorded (side input must broadcast)")
	}
	if v, ok := bc.Args["bytes"].(int64); !ok || v <= 0 {
		t.Errorf("dist.broadcast bytes attr = %v", bc.Args["bytes"])
	}
	sh, ok := found["dist.shuffle"]
	if !ok {
		t.Fatal("no dist.shuffle span recorded (partial aggregates must shuffle)")
	}
	if sh.Args["partitions"] == nil {
		t.Errorf("dist.shuffle attrs = %v", sh.Args)
	}
}

// TestCostAuditSession exercises the audit ledger end-to-end on a kmeans
// run followed by an mvchain refinement step: after the run, the summary
// must report per-template rel-err histograms with nonzero entry counts
// for at least Cell and Row.
func TestCostAuditSession(t *testing.T) {
	s := NewSession(codegen.DefaultConfig())
	s.Out = io.Discard
	s.Bind("X", matrix.Rand(1000, 20, 1, -1, 1, 7))
	s.Bind("C0", matrix.Rand(5, 20, 1, -1, 1, 12))
	err := s.Run(`
		C = C0
		rs2 = rowSums(X ^ 2)
		wcss = 0
		for (iter in 1:5) {
			D = t(rowSums(C ^ 2)) - 2 * (X %*% t(C))
			mind = rowMins(D)
			P = (D <= mind)
			P = P / rowSums(P)
			counts = t(colSums(P))
			C = (t(P) %*% X) / max(counts, 1)
			wcss = sum(mind + rs2)
		}
		v = t(colSums(X))
		w = t(X) %*% (X %*% v)
	`)
	if err != nil {
		t.Fatal(err)
	}
	sum := s.CostAudit()
	for _, tmpl := range []string{"Cell", "Row"} {
		ta, ok := sum.Templates[tmpl]
		if !ok || ta.Count == 0 {
			t.Errorf("no audit entries for template %s: %+v", tmpl, sum.Templates)
			continue
		}
		if ta.RelErr.Count() != ta.Count {
			t.Errorf("%s: histogram count %d != entries %d", tmpl, ta.RelErr.Count(), ta.Count)
		}
		if ta.PredSec <= 0 || ta.ActualSec <= 0 {
			t.Errorf("%s: pred/actual not positive: %+v", tmpl, ta)
		}
	}
	if sum.TotalActualSec <= 0 || len(sum.Groups) == 0 {
		t.Fatalf("empty audit summary: %+v", sum)
	}
	// Groups are ranked worst-misprediction-first.
	for i := 1; i < len(sum.Groups); i++ {
		if sum.Groups[i].AbsMispredSec() > sum.Groups[i-1].AbsMispredSec() {
			t.Fatal("audit groups not sorted by absolute misprediction")
		}
	}
}

// TestAuditTemplateCoverage checks each fused template type records audit
// entries tagged with its name.
func TestAuditTemplateCoverage(t *testing.T) {
	cases := []struct {
		template string
		bind     map[string]*matrix.Matrix
		script   string
	}{
		{"Cell", map[string]*matrix.Matrix{
			"X": matrix.Rand(400, 40, 1, -1, 1, 1),
			"Y": matrix.Rand(400, 40, 1, -1, 1, 2),
		}, `s = sum(X * Y * Y)`},
		{"Row", map[string]*matrix.Matrix{
			"X": matrix.Rand(400, 40, 1, -1, 1, 3),
			"v": matrix.Rand(40, 1, 1, -1, 1, 4),
		}, `w = t(X) %*% (X %*% v)`},
		// 400 KB of X: above the sibling gate (~320 KB at the default ReadBW).
		{"MAgg", map[string]*matrix.Matrix{
			"X": matrix.Rand(1000, 50, 1, -1, 1, 5),
			"Y": matrix.Rand(1000, 50, 1, -1, 1, 6),
			"Z": matrix.Rand(1000, 50, 1, -1, 1, 7),
		}, "s1 = sum(X * Y)\ns2 = sum(X * Z)"},
		{"Outer", map[string]*matrix.Matrix{
			"X": matrix.Rand(300, 300, 0.05, 1, 2, 8),
			"U": matrix.Rand(300, 10, 1, -1, 1, 9),
			"V": matrix.Rand(300, 10, 1, -1, 1, 10),
		}, `s = sum(X * log(U %*% t(V) + 1e-15))`},
	}
	for _, tc := range cases {
		t.Run(tc.template, func(t *testing.T) {
			s := NewSession(codegen.DefaultConfig())
			s.Out = io.Discard
			for n, m := range tc.bind {
				s.Bind(n, m)
			}
			if err := s.Run(tc.script); err != nil {
				t.Fatal(err)
			}
			ta, ok := s.CostAudit().Templates[tc.template]
			if !ok || ta.Count == 0 {
				t.Fatalf("no %s audit entries; templates = %+v",
					tc.template, s.CostAudit().Templates)
			}
		})
	}
}

// TestPlanCacheMetrics verifies the plan-cache hit/miss/eviction counters
// surface in Session.Metrics. ReuseBlockPlans is disabled so the second
// run re-optimizes and hits the compiled-operator cache.
func TestPlanCacheMetrics(t *testing.T) {
	cfg := codegen.DefaultConfig()
	cfg.ReuseBlockPlans = false
	s := NewSession(cfg)
	s.Out = io.Discard
	s.Bind("X", matrix.Rand(400, 40, 1, -1, 1, 1))
	s.Bind("Y", matrix.Rand(400, 40, 1, -1, 1, 2))
	for i := 0; i < 2; i++ {
		if err := s.Run(`s = sum(X * Y * Y)`); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Metrics()
	if snap.Counter("plancache.misses") == 0 {
		t.Error("first run must miss the plan cache")
	}
	if snap.Counter("plancache.hits") == 0 {
		t.Error("second identical run must hit the plan cache")
	}
	if hr := snap.Gauge("plancache.hitrate"); hr <= 0 || hr >= 1 {
		t.Errorf("hit rate = %g, want in (0, 1)", hr)
	}
}

// TestRunInSpanNestsUnderParent verifies the serving-path span threading:
// a run executed via RunInSpan nests its whole hierarchy under the given
// request span, and a request ID on the context lands on the run span.
func TestRunInSpanNestsUnderParent(t *testing.T) {
	s := NewSession(codegen.DefaultConfig())
	s.Out = io.Discard
	ts := obs.NewTraceSink()
	s.Sink = ts
	s.Bind("X", matrix.Rand(300, 30, 1, -1, 1, 3))

	req := obs.StartSpan(nil, ts, "request")
	req.Annotate(obs.KV("tenant", "alpha"))
	ctx := obs.ContextWithRequestID(context.Background(), "req-42")
	if err := s.RunInSpan(ctx, "s = sum(X * X)", req); err != nil {
		t.Fatal(err)
	}
	req.End()

	evs := ts.Events()
	byName := map[string]obs.TraceEvent{}
	for _, e := range evs {
		byName[e.Name] = e
	}
	reqEv, ok := byName["request"]
	if !ok {
		t.Fatalf("no request span in %d events", len(evs))
	}
	runEv, ok := byName["run"]
	if !ok {
		t.Fatal("no run span")
	}
	if runEv.Args["parent"] != reqEv.Args["span"] {
		t.Fatalf("run parent = %v, want request span %v", runEv.Args["parent"], reqEv.Args["span"])
	}
	if runEv.Args["request.id"] != "req-42" {
		t.Fatalf("run span request.id = %v, want req-42", runEv.Args["request.id"])
	}
	// The execute phase must chain up to the run span, and at least one
	// per-operator child must chain to execute.
	execEv, ok := byName["execute"]
	if !ok {
		t.Fatal("no execute span")
	}
	if execEv.Args["parent"] != runEv.Args["span"] {
		t.Fatalf("execute parent = %v, want run %v", execEv.Args["parent"], runEv.Args["span"])
	}
	foundOp := false
	for _, e := range evs {
		if e.Name != "execute" && e.Args["parent"] == execEv.Args["span"] {
			foundOp = true
		}
	}
	if !foundOp {
		t.Error("no per-operator span under execute")
	}

	// A zero parent behaves exactly like RunContext: fresh root.
	s2 := NewSession(codegen.DefaultConfig())
	s2.Out = io.Discard
	ts2 := obs.NewTraceSink()
	s2.Sink = ts2
	s2.Bind("X", matrix.Rand(100, 10, 1, -1, 1, 3))
	if err := s2.RunInSpan(context.Background(), "s = sum(X)", obs.Span{}); err != nil {
		t.Fatal(err)
	}
	for _, e := range ts2.Events() {
		if e.Name == "run" && e.Args["parent"] != nil {
			t.Errorf("zero-parent run has parent %v", e.Args["parent"])
		}
	}
}
