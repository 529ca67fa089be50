package dml

import (
	"math"
	"strings"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/compress"
	"sysml/internal/matrix"
)

// claInput generates a low-cardinality bound input large enough to clear
// the auto-compress size floor.
func claInput(rows, cols, card int, seed int64) *matrix.Matrix {
	m := matrix.Rand(rows, cols, 1, 0, float64(card), seed)
	d := m.Dense()
	for i := range d {
		d[i] = math.Floor(d[i])
	}
	return m
}

func TestAutoCompressAttachesAndMatchesDense(t *testing.T) {
	script := `
		s = sum(X * X)
		c = colSums(X + 1)
		m = sum(X) / (nrow(X) * ncol(X))
	`
	x := claInput(4000, 6, 8, 11)
	xc := x.Clone()

	auto := newTestSession(codegen.ModeGen)
	auto.Bind("X", x)
	if err := auto.Run(script); err != nil {
		t.Fatal(err)
	}
	if compress.Of(x) == nil {
		t.Fatal("auto-compress should attach a compressed form to X")
	}
	snap := auto.Metrics()
	if snap.Counters["compress.auto.compressed"] == 0 {
		t.Fatal("compress.auto.compressed counter not incremented")
	}
	if r := snap.Gauges["compress.ratio"]; r < 2 {
		t.Fatalf("compress.ratio gauge = %v, want >= 2", r)
	}

	off := newTestSession(codegen.ModeGen)
	off.Config.Compress = codegen.CompressOff
	off.Bind("X", xc)
	if err := off.Run(script); err != nil {
		t.Fatal(err)
	}
	if compress.Of(xc) != nil {
		t.Fatal("CompressOff must not attach")
	}
	for _, name := range []string{"s", "c", "m"} {
		a, err1 := auto.Get(name)
		b, err2 := off.Get(name)
		if err1 != nil || err2 != nil {
			t.Fatalf("missing output %s: %v %v", name, err1, err2)
		}
		if !a.EqualsApprox(b, 1e-9) {
			t.Fatalf("compressed result %s differs from dense", name)
		}
	}
	compress.Drop(x)
	compress.Drop(xc)
}

func TestAutoCompressDeclinesIncompressible(t *testing.T) {
	x := matrix.Rand(4000, 6, 1, -1, 1, 12) // all-distinct: ratio ~1
	s := newTestSession(codegen.ModeGen)
	s.Bind("X", x)
	if err := s.Run("s = sum(X * X)"); err != nil {
		t.Fatal(err)
	}
	if compress.Of(x) != nil {
		t.Fatal("incompressible input must not be compressed")
	}
	if reason, ok := compress.DeclineReason(x); !ok || reason == "" {
		t.Fatal("decline must be cached with a reason")
	}
	if s.Metrics().Counters["compress.auto.declined"] == 0 {
		t.Fatal("compress.auto.declined counter not incremented")
	}
	// Re-running must reuse the cached decline, not re-estimate per block.
	declined := s.Metrics().Counters["compress.auto.declined"]
	if err := s.Run("t = sum(X)"); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Counters["compress.auto.declined"]; got != declined {
		t.Fatalf("decline not cached: counter %d -> %d", declined, got)
	}
	compress.Drop(x)
}

func TestExplainCompressedSection(t *testing.T) {
	x := claInput(4000, 5, 6, 14)
	s := newTestSession(codegen.ModeGen)
	s.Bind("X", x)
	out, err := s.Explain("s = sum(X * X)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "COMPRESSED") {
		t.Fatalf("EXPLAIN lacks COMPRESSED section:\n%s", out)
	}
	if !strings.Contains(out, "X 4000x5") {
		t.Fatalf("EXPLAIN lacks per-input compression line:\n%s", out)
	}
	compress.Drop(x)
}

func TestRebindReleasesAttachment(t *testing.T) {
	x := claInput(3000, 4, 5, 15)
	s := newTestSession(codegen.ModeGen)
	s.Bind("X", x)
	if err := s.Run("s = sum(X)\nX = X + 1\nt = sum(X)"); err != nil {
		t.Fatal(err)
	}
	if compress.Of(s.Env["X"]) != nil {
		t.Fatal("the rebound X inherited a compressed form")
	}
	// The block output X is rebound; its new matrix must not inherit the old
	// attachment, and results must stay consistent.
	a, _ := s.Scalar("s")
	b, _ := s.Scalar("t")
	if math.Abs((a+3000*4)-b) > 1e-6 {
		t.Fatalf("rebound X results inconsistent: s=%v t=%v", a, b)
	}
	compress.Drop(x)
}

// codesTable is a dense table of small integer codes scaled by 1.25, so that
// round() of it is a different, equally compressible matrix.
func codesTable(rows, cols int, seed int64) *matrix.Matrix {
	m := claInput(rows, cols, 16, seed)
	d := m.Dense()
	for i := range d {
		d[i] *= 1.25
	}
	return m
}

// compressCounters reads the compression counters of a session.
func compressCounters(s *Session) (sampled, compressed, declined int64) {
	c := s.Metrics().Counters
	return c["compress.auto.sampled"], c["compress.auto.compressed"], c["compress.auto.declined"]
}

// TestProducedValuesAreNeverSampled: Xc = round(X) is produced by the script
// and then read 800 times by one plan, sum(Xc^2), which could run over its
// dictionaries. It never reaches the estimator, in this session or in a
// second one it is bound into, and EXPLAIN says why, while
// the bound X is sampled at its first read and compressed as before. The
// result is the one without compression.
func TestProducedValuesAreNeverSampled(t *testing.T) {
	script := `
		Xc = round(X)
		s = 0
		i = 0
		while (i < 800) {
			s = s + sum(Xc ^ 2)
			i = i + 1
		}`
	run := func(mode codegen.CompressMode) *Session {
		t.Helper()
		cfg := codegen.DefaultConfig()
		cfg.Compress = mode
		cfg.Reopt.MinSec = math.Inf(1)
		s := newTestSessionCfg(cfg)
		s.Bind("X", codesTable(2500, 29, 21))
		if err := s.Run(script); err != nil {
			t.Fatal(err)
		}
		return s
	}

	auto := run(codegen.CompressAuto)
	if sampled, compressed, declined := compressCounters(auto); sampled != 1 || compressed != 1 || declined != 0 {
		t.Errorf("sampled %d, compressed %d, declined %d; want X alone sampled and compressed", sampled, compressed, declined)
	}
	if x := auto.Env["X"]; compress.Of(x) == nil {
		t.Error("the bound X was not compressed")
	}
	if m, _ := auto.Get("Xc"); compress.Of(m) != nil {
		t.Error("Xc was compressed")
	}
	verdicts := map[string]string{}
	for e := auto.blockLRU.Front(); e != nil; e = e.Next() {
		for _, ci := range auto.compressReport(e.Value.(*blockEntry).inputs) {
			verdicts[ci.Name] = ci.Verdict
		}
	}
	if v := verdicts["Xc"]; v != "produced by the script" {
		t.Errorf("Xc: verdict %q", v)
	}
	if v := verdicts["X"]; !strings.HasPrefix(v, "compressed ") {
		t.Errorf("X: verdict %q, want its compressed form", v)
	}
	// The verdict is the matrix's own: bound into a second session, Xc is
	// not sampled there either.
	xc, _ := auto.Get("Xc")
	second := newTestSessionCfg(auto.Config)
	second.Bind("Y", xc)
	if err := second.Run(`z = sum(Y ^ 2)`); err != nil {
		t.Fatal(err)
	}
	if sampled, _, _ := compressCounters(second); sampled != 0 {
		t.Errorf("Xc bound into a second session was sampled %d times", sampled)
	}

	off := run(codegen.CompressOff)
	a, _ := auto.Scalar("s")
	b, _ := off.Scalar("s")
	if math.Abs(a-b) > 1e-9*math.Abs(b) {
		t.Errorf("s = %v with X compressed, %v without compression", a, b)
	}
}

// TestProducedValuesWithoutSecondReadOrConsumerAreNeverSampled: a value
// rewritten every iteration, and a transpose that only feeds matrix
// products, are produced by the script; neither reaches the estimator, and
// EXPLAIN gives that as the reason.
func TestProducedValuesWithoutSecondReadOrConsumerAreNeverSampled(t *testing.T) {
	cfg := codegen.DefaultConfig()
	cfg.Reopt.MinSec = math.Inf(1)
	s := newTestSessionCfg(cfg)
	s.Bind("X", matrix.Rand(3000, 8, 1, -1, 1, 31)) // sampled once, declined
	s.Bind("U", matrix.Rand(3000, 4, 1, -1, 1, 32)) // sampled once, declined
	err := s.Run(`
		Xt = t(X)
		acc = 0
		i = 0
		while (i < 6) {
			Y = X + i
			if (i >= 0) {
				acc = acc + sum(Y ^ 2)
			}
			G = Xt %*% U
			acc = acc + sum(G)
			i = i + 1
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if sampled, compressed, declined := compressCounters(s); sampled != 2 || compressed != 0 || declined != 2 {
		t.Errorf("sampled %d, compressed %d, declined %d; want the two bound inputs sampled and declined, nothing else", sampled, compressed, declined)
	}
	seen := map[string]bool{}
	for e := s.blockLRU.Front(); e != nil; e = e.Next() {
		for _, ci := range s.compressReport(e.Value.(*blockEntry).inputs) {
			if ci.Name != "Xt" && ci.Name != "Y" {
				continue
			}
			seen[ci.Name] = true
			if ci.Verdict != "produced by the script" {
				t.Errorf("%s: verdict %q", ci.Name, ci.Verdict)
			}
		}
	}
	if !seen["Xt"] || !seen["Y"] {
		t.Errorf("verdicts reported for %v, want Xt and Y", seen)
	}
}

// TestOutsideInputsAreSampledAtFirstRead pins the carve-out of ISSUE 18 (c):
// a value that enters the session from outside — through Bind, or written
// into Env directly as serve.runJob does, which leaves it out of the bound
// set — is sampled when a block first reads it, whatever the plan, and once
// per matrix. The request-scoped decision is a later change, which removes
// this knowingly.
func TestOutsideInputsAreSampledAtFirstRead(t *testing.T) {
	s := newTestSession(codegen.ModeGen)
	s.Bind("X", matrix.Rand(4000, 6, 1, -1, 1, 41))
	for _, script := range []string{"a = t(X) %*% X", "b = sum(X)", "c = X %*% t(X[1:6, ])"} {
		if err := s.Run(script); err != nil {
			t.Fatal(err)
		}
	}
	if sampled, _, declined := compressCounters(s); sampled != 1 || declined != 1 {
		t.Errorf("bound input: sampled %d, declined %d; want 1, 1", sampled, declined)
	}

	r := newTestSession(codegen.ModeGen)
	for i := 0; i < 3; i++ {
		r.Env["X"] = claInput(128, 64, 4, int64(50+i))  // exactly compressMinBytes, as a serve_mix request
		if err := r.Run("a = t(X) %*% X"); err != nil { // no compressed consumer in the plan
			t.Fatal(err)
		}
		r.Reset()
	}
	if sampled, compressed, _ := compressCounters(r); sampled != 3 || compressed != 3 {
		t.Errorf("request inputs: sampled %d, compressed %d; want 3, 3", sampled, compressed)
	}
}

// TestSparseRandomInputDeclinedFromEstimate: a random sparse input (the Xs
// of the benchmark's cell.sparse, real ratio 0.47) is declined by the
// estimate; it used to be compressed in full and declined afterwards.
func TestSparseRandomInputDeclinedFromEstimate(t *testing.T) {
	x := matrix.Rand(20000, 100, 0.1, -1, 1, 61)
	s := newTestSession(codegen.ModeGen)
	s.Bind("X", x)
	if err := s.Run("s = sum(X * X)"); err != nil {
		t.Fatal(err)
	}
	reason, declined := compress.DeclineReason(x)
	if !declined || !strings.HasPrefix(reason, "estimated ratio") {
		t.Errorf("decline reason %q, want the estimate to decline (not the compression)", reason)
	}
}
