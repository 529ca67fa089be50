package dml

import (
	"math"
	"strconv"
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

func TestCompressOnForcesCompression(t *testing.T) {
	x := claInput(3000, 4, 5, 13)
	s := newTestSession(codegen.ModeGen)
	s.Config.Compress = codegen.CompressOn
	s.Bind("X", x)
	if err := s.Run("s = sum(X)"); err != nil {
		t.Fatal(err)
	}
	if compress.Of(x) == nil {
		t.Fatal("CompressOn must attach")
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
	s.Config.Compress = codegen.CompressOn
	s.Bind("X", x)
	if err := s.Run("s = sum(X)\nX = X + 1\nt = sum(X)"); err != nil {
		t.Fatal(err)
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

// counters reads the compression counters of a session.
func compressCounters(s *Session) (sampled, compressed, declined, skipped, hits int64) {
	c := s.Metrics().Counters
	return c["compress.auto.sampled"], c["compress.auto.compressed"], c["compress.auto.declined"],
		c["compress.plan.skipped"], c["compress.exec.hit"]
}

// TestProducedLoopInvariantIsCompressedWhenItPays: Xc = round(X) is produced
// by the script and then read by one plan, sum(Xc^2), in every iteration.
// The plan has a compressed consumer for it, so the second read samples it
// (once), and the reads after that compress it when, at the cost model's
// ReadBW and CompressBW, they have earned the compression back: at the
// defaults (ReadBW/CompressBW = 64) and this table's estimate (ratio 3.81,
// 278 sampled rows) (64496 + 580000) / (580000 − 152231) × 64 = 96.4, so
// from read 97 on. From then on the aggregate runs over the dictionaries.
func TestProducedLoopInvariantIsCompressedWhenItPays(t *testing.T) {
	script := func(iters int) string {
		return `
		Xc = round(X)
		s = 0
		i = 0
		while (i < ` + strconv.Itoa(iters) + `) {
			s = s + sum(Xc ^ 2)
			i = i + 1
		}`
	}
	run := func(iters int, mode codegen.CompressMode) *Session {
		t.Helper()
		cfg := codegen.DefaultConfig()
		cfg.Compress = mode
		cfg.Reopt.MinSec = math.Inf(1)
		s := newTestSessionCfg(cfg)
		s.Bind("X", codesTable(2500, 29, 21))
		if err := s.Run(script(iters)); err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Too few reads to pay for it: sampled at the second read, never
	// compressed, and EXPLAIN says what the inequality read.
	short := run(40, codegen.CompressAuto)
	sampled, compressed, declined, _, _ := compressCounters(short)
	if sampled != 2 || compressed != 1 || declined != 0 { // X and Xc sampled, X compressed
		t.Errorf("40 reads: sampled %d, compressed %d, declined %d; want 2, 1, 0", sampled, compressed, declined)
	}
	xc, _ := short.Get("Xc")
	if compress.Of(xc) != nil {
		t.Error("Xc was compressed after 40 reads")
	}
	// The loop body is the plan that ran last (the predicate after it).
	body := short.blockLRU.Front().Next().Value.(*blockEntry)
	if v := short.verdict(findRead(body.reads, "Xc")); !strings.HasPrefix(v, "benefit ") {
		t.Errorf("verdict %q, want the benefit/cost inequality", v)
	}

	long := run(800, codegen.CompressAuto)
	sampled, compressed, _, _, hits := compressCounters(long)
	if sampled != 2 || compressed != 2 {
		t.Errorf("800 reads: sampled %d, compressed %d; want 2 and 2 (one estimate per value)", sampled, compressed)
	}
	xc, _ = long.Get("Xc")
	if compress.Of(xc) == nil {
		t.Fatal("Xc was not compressed after 800 reads")
	}
	if hits < 650 || hits > 750 { // round(X) over compressed X, then the reads from 97 on
		t.Errorf("compress.exec.hit = %d, want the aggregate over the dictionaries from about read 97 on", hits)
	}
	if n := long.Metrics().Counters["reopt.compress"]; n != 1 {
		t.Errorf("the reading plan was re-planned %d times under the annotation, want once", n)
	}
	off := run(800, codegen.CompressOff)
	a, _ := long.Scalar("s")
	b, _ := off.Scalar("s")
	if math.Abs(a-b) > 1e-9*math.Abs(b) {
		t.Errorf("s = %v with the value compressed mid-loop, %v without compression", a, b)
	}
	compress.DropAll()
}

// TestProducedValuesWithoutSecondReadOrConsumerAreNeverSampled: a value
// rewritten every iteration is never read twice by the plan that reads it,
// and a transpose that only feeds matrix products has no operator that
// could use a compressed form; neither reaches the estimator.
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
	sampled, compressed, declined, skipped, _ := compressCounters(s)
	if sampled != 2 || compressed != 0 || declined != 2 {
		t.Errorf("sampled %d, compressed %d, declined %d; want the two bound inputs sampled and declined, nothing else", sampled, compressed, declined)
	}
	if skipped < 12 { // Y and Xt, six reads each
		t.Errorf("compress.plan.skipped = %d, want the reads of Y and Xt counted", skipped)
	}
	for e := s.blockLRU.Front(); e != nil; e = e.Next() {
		entry := e.Value.(*blockEntry)
		if r := findRead(entry.reads, "Xt"); r != nil {
			if v := s.verdict(r); v != "no compressed consumer" {
				t.Errorf("Xt: verdict %q", v)
			}
		}
		if r := findRead(entry.reads, "Y"); r != nil {
			if v := s.verdict(r); v != "second read pending" {
				t.Errorf("Y: verdict %q", v)
			}
		}
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
	if sampled, _, declined, skipped, _ := compressCounters(s); sampled != 1 || declined != 1 || skipped != 0 {
		t.Errorf("bound input: sampled %d, declined %d, skipped %d; want 1, 1, 0", sampled, declined, skipped)
	}

	r := newTestSession(codegen.ModeGen)
	for i := 0; i < 3; i++ {
		r.Env["X"] = claInput(128, 64, 4, int64(50+i))  // exactly compressMinBytes, as a serve_mix request
		if err := r.Run("a = t(X) %*% X"); err != nil { // no compressed consumer in the plan
			t.Fatal(err)
		}
		r.Reset()
	}
	if sampled, compressed, _, skipped, _ := compressCounters(r); sampled != 3 || compressed != 3 || skipped != 0 {
		t.Errorf("request inputs: sampled %d, compressed %d, skipped %d; want 3, 3, 0", sampled, compressed, skipped)
	}
	compress.DropAll()
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
