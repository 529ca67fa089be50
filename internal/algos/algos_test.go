package algos

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/data"
	"sysml/internal/dml"
	"sysml/internal/matrix"
)

// runModes executes an algorithm under every optimizer mode and checks the
// outputs agree with Base within floating-point slack. Fused chains change
// accumulation order, so the tolerance is loose but relative.
func runModes(t *testing.T, a Algorithm, rows, cols int, overrides map[string]float64) map[codegen.Mode]*matrix.Matrix {
	t.Helper()
	inputs := a.Gen(rows, cols, 42)
	results := map[codegen.Mode]*matrix.Matrix{}
	var ref *matrix.Matrix
	for _, mode := range []codegen.Mode{codegen.ModeBase, codegen.ModeFused,
		codegen.ModeGen, codegen.ModeGenFA, codegen.ModeGenFNR} {
		cfg := codegen.DefaultConfig()
		cfg.Mode = mode
		s, err := a.Run(cfg, inputs, overrides, nil, &bytes.Buffer{})
		if err != nil {
			t.Fatalf("%s/%v: %v", a.Name, mode, err)
		}
		out, err := s.Get(a.Outputs[0])
		if err != nil {
			t.Fatalf("%s/%v: missing output %s: %v", a.Name, mode, a.Outputs[0], err)
		}
		results[mode] = out
		if mode == codegen.ModeBase {
			ref = out
			continue
		}
		if !out.EqualsApprox(ref, 1e-4) {
			t.Errorf("%s/%v: output %s differs from Base", a.Name, mode, a.Outputs[0])
		}
	}
	return results
}

func TestL2SVM(t *testing.T) {
	runModes(t, L2SVM, 500, 10, map[string]float64{"maxiter": 5})
	// Convergence sanity: objective decreases vs initial hinge loss.
	inputs := L2SVM.Gen(500, 10, 1)
	cfg := codegen.DefaultConfig()
	s, err := L2SVM.Run(cfg, inputs, map[string]float64{"maxiter": 10}, nil, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := s.Scalar("obj")
	if math.IsNaN(obj) || obj <= 0 || obj > 500 {
		t.Fatalf("implausible L2SVM objective %v", obj)
	}
	w, _ := s.Get("w")
	if w.Rows != 10 || w.Cols != 1 {
		t.Fatal("w dims")
	}
}

func TestMLogreg(t *testing.T) {
	runModes(t, MLogreg, 400, 12, map[string]float64{"maxiter": 3, "inneriter": 4, "k": 3})
}

// TestMLogregCGBlockPlan pins the plan of MLogreg's inner CG block on the
// Table-4 shape (150000×10, k=3): Expression (2), HS = t(X) %*% (Q - P *
// rowSums(Q)) with Q = P * (X %*% S), is exactly one Row operator, and no
// transpose or matrix product over X is left as a basic operator. (Q is a
// script variable, so it is written too: by a second, NoAgg Row operator.)
func TestMLogregCGBlockPlan(t *testing.T) {
	s := dml.NewSession(codegen.DefaultConfig())
	for name, m := range MLogreg.Gen(150000, 10, 7) {
		s.Bind(name, m)
	}
	for name, v := range MLogreg.Scalars {
		s.BindScalar(name, v)
	}
	for name, v := range map[string]float64{"maxiter": 1, "inneriter": 1, "k": 3} {
		s.BindScalar(name, v)
	}
	explain, err := s.Explain(MLogreg.Script)
	if err != nil {
		t.Fatal(err)
	}
	var cg string
	for _, block := range strings.Split(explain, "# EXPLAIN block")[1:] {
		if strings.Contains(block, "data(S)") && strings.Contains(block, "data(rsold)") {
			cg = block
		}
	}
	if cg == "" {
		t.Fatalf("no CG block in:\n%s", explain)
	}
	ops, after, ok := strings.Cut(cg[strings.Index(cg, "fused operators:"):], "hops after fusion:")
	if !ok {
		t.Fatalf("no fused plan for the CG block:\n%s", cg)
	}
	hs := 0
	for _, line := range strings.Split(ops, "\n") {
		if strings.Contains(line, "Row TMP") && strings.Contains(line, "10x2 output") {
			hs++
		}
	}
	if hs != 1 {
		t.Errorf("want exactly one Row operator producing the 10x2 Hessian-vector product, got %d:\n%s", hs, ops)
	}
	for _, basic := range []string{" r(t) ", " ba(+*) "} {
		if strings.Contains(after, basic) {
			t.Errorf("basic%sleft after fusion:\n%s", basic, after)
		}
	}
}

func TestGLM(t *testing.T) {
	runModes(t, GLM, 400, 10, map[string]float64{"maxiter": 3, "inneriter": 4})
	inputs := GLM.Gen(600, 10, 2)
	cfg := codegen.DefaultConfig()
	s, err := GLM.Run(cfg, inputs, map[string]float64{"maxiter": 8}, nil, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := s.Scalar("dev")
	// Deviance must beat the null model (2n·ln2 ≈ 832 for n=600).
	if math.IsNaN(dev) || dev <= 0 || dev >= 2*600*math.Ln2 {
		t.Fatalf("implausible GLM deviance %v", dev)
	}
}

func TestKMeans(t *testing.T) {
	runModes(t, KMeans, 500, 8, map[string]float64{"maxiter": 5})
	inputs := KMeans.Gen(500, 8, 3)
	cfg := codegen.DefaultConfig()
	s, err := KMeans.Run(cfg, inputs, map[string]float64{"maxiter": 10}, nil, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	wcss, _ := s.Scalar("wcss")
	if math.IsNaN(wcss) || wcss < 0 {
		t.Fatalf("implausible KMeans WCSS %v", wcss)
	}
	c, _ := s.Get("C")
	if c.Rows != 5 || c.Cols != 8 {
		t.Fatal("centroid dims")
	}
}

func TestALSCG(t *testing.T) {
	runModes(t, ALSCG, 200, 150, map[string]float64{"maxiter": 2, "rank": 4})
	// Loss decreases over iterations.
	inputs := ALSCG.Gen(200, 150, 5)
	cfg := codegen.DefaultConfig()
	one, err := ALSCG.Run(cfg, inputs, map[string]float64{"maxiter": 1, "rank": 4}, nil, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	four, err := ALSCG.Run(cfg, inputs, map[string]float64{"maxiter": 4, "rank": 4}, nil, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := one.Scalar("loss")
	l4, _ := four.Scalar("loss")
	if math.IsNaN(l1) || math.IsNaN(l4) || l4 > l1 {
		t.Fatalf("ALS-CG loss did not decrease: %v -> %v", l1, l4)
	}
	// The update rule must compile to sparsity-exploiting Outer operators.
	s := one
	if s.Stats.CPlansConstructed == 0 {
		t.Fatal("no fused operators constructed for ALS-CG")
	}
}

func TestAutoEncoder(t *testing.T) {
	runModes(t, AutoEncoder, 1100, 20,
		map[string]float64{"epochs": 1, "batch": 256, "H1": 16, "H2": 2})
	inputs := AutoEncoder.Gen(1100, 20, 6)
	cfg := codegen.DefaultConfig()
	s, err := AutoEncoder.Run(cfg, inputs,
		map[string]float64{"epochs": 2, "batch": 256, "H1": 16, "H2": 2}, nil, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := s.Scalar("obj")
	if math.IsNaN(obj) || obj <= 0 {
		t.Fatalf("implausible AutoEncoder objective %v", obj)
	}
}

// TestAutoEncoderReusesBlockPlans: the mini-batch block is one plan whose
// slice offsets are parameters, not one plan per batch position. The time
// trigger of re-optimization is off so that the count repeats.
func TestAutoEncoderReusesBlockPlans(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inputs map[string]*matrix.Matrix
	}{
		{"dense", AutoEncoder.Gen(2100, 20, 6)},
		{"sparse", map[string]*matrix.Matrix{"X": data.Sparse(2100, 20, 0.1, 7)}},
	} {
		cfg := codegen.DefaultConfig()
		cfg.Reopt.MinSec = math.Inf(1)
		s, err := AutoEncoder.Run(cfg, tc.inputs,
			map[string]float64{"epochs": 2, "batch": 128, "H1": 16, "H2": 2}, nil, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		// The initialization block, the mini-batch block, and at most one
		// more of it (the first batch reads obj = 0, a sparse scalar).
		if s.Blocks > 3 {
			t.Errorf("%s: %d blocks optimized over 32 mini-batches, want <= 3", tc.name, s.Blocks)
		}
		if s.BlockCacheHits < 30 {
			t.Errorf("%s: %d block plans reused over 32 mini-batches", tc.name, s.BlockCacheHits)
		}
	}
}

// TestAlgorithmsSampleOnlyTheirInputs: in all six algorithms the ratio
// estimator runs on the bound inputs only — once each, when first read. No
// value the scripts produce is sampled: most have no operator that could
// use a compressed form (t(X) under matrix products, the 150000x1 vectors
// that are sides of Row operators), and the ones that have (MLogreg's P under
// sum(P*P)) are rewritten before the plan reads them a second time.
func TestAlgorithmsSampleOnlyTheirInputs(t *testing.T) {
	overrides := map[string]map[string]float64{
		"L2SVM": {"maxiter": 3}, "MLogreg": {"maxiter": 2, "inneriter": 3, "k": 3},
		"GLM": {"maxiter": 2, "inneriter": 3}, "KMeans": {"maxiter": 3},
		"ALS-CG": {"maxiter": 1, "rank": 4}, "AutoEncoder": {"epochs": 1, "batch": 2048, "H1": 16, "H2": 2},
	}
	for _, a := range All {
		rows, cols := 10000, 10 // 10000x1 intermediates are compression candidates
		if a.Name == "ALS-CG" {
			rows, cols = 3000, 3000
		}
		inputs := a.Gen(rows, cols, 11)
		cfg := codegen.DefaultConfig()
		cfg.Reopt.MinSec = math.Inf(1)
		s, err := a.Run(cfg, inputs, overrides[a.Name], nil, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		candidates := int64(0)
		for _, m := range inputs {
			if m.Rows > 1 && m.SizeBytes() >= 1<<16 { // the interpreter's compression floor, 64 KiB
				candidates++
			}
		}
		c := s.Metrics().Counters
		if got := c["compress.auto.sampled"]; got > candidates {
			t.Errorf("%s: estimator ran %d times for %d candidate inputs", a.Name, got, candidates)
		}
		if a.Name != "AutoEncoder" && c["compress.plan.skipped"] == 0 {
			t.Errorf("%s: no read of a script-produced value was counted as skipped", a.Name)
		}
	}
}

// variantInputs are an algorithm's inputs over a dense synthetic X, a sparse
// Mnist-like one and a table of small integer codes that auto-compresses —
// the three ways the benchmark stores X.
func variantInputs(a Algorithm, seed int64) map[string]map[string]*matrix.Matrix {
	codes := matrix.Rand(600, 29, 1, 0, 1, seed+1)
	for k, v := range codes.Dense() {
		codes.Dense()[k] = float64(int(v * float64(4+k%29)))
	}
	xs := map[string]*matrix.Matrix{
		"dense": data.Dense(400, 10, seed+2), "sparse": data.MnistLike(300, seed+3), "codes": codes,
	}
	if a.Name == "ALS-CG" {
		return map[string]map[string]*matrix.Matrix{"sparse": a.Gen(200, 150, seed)}
	}
	out := map[string]map[string]*matrix.Matrix{}
	for name, x := range xs {
		in := map[string]*matrix.Matrix{"X": x}
		switch a.Name {
		case "L2SVM":
			in["Y"] = data.BinaryLabels(x, 0.05, seed+4)
		case "GLM":
			in["Y"] = data.ZeroOneLabels(data.BinaryLabels(x, 0.05, seed+4))
		case "MLogreg":
			in["Yfull"] = data.MultiClassIndicator(x, 3, seed+4)
		case "KMeans":
			in["C0"] = matrix.Rand(5, x.Cols, 1, -1, 1, seed+4)
		}
		out[name] = in
	}
	return out
}

// TestGenMatchesBaseOnEveryStorage: the six algorithms under Gen against
// Base over dense, sparse and compressible inputs, so that the view, fill and
// nnz bindings of their fused operators are held to the scripts' answers.
// (None of their operators over the codes table is eligible for the dict
// binding — ROADMAP item 8c; runtime and dml test that one.)
func TestGenMatchesBaseOnEveryStorage(t *testing.T) {
	overrides := map[string]map[string]float64{
		"L2SVM": {"maxiter": 3}, "MLogreg": {"maxiter": 2, "inneriter": 3, "k": 3},
		"GLM": {"maxiter": 2, "inneriter": 3}, "KMeans": {"maxiter": 3},
		"ALS-CG": {"maxiter": 1, "rank": 4}, "AutoEncoder": {"epochs": 1, "batch": 64, "H1": 16, "H2": 2},
	}
	binds := map[string]int64{}
	for _, a := range All {
		for storage, in := range variantInputs(a, 23) {
			outs := map[codegen.Mode]*dml.Session{}
			for _, mode := range []codegen.Mode{codegen.ModeBase, codegen.ModeGen} {
				cfg := codegen.DefaultConfig()
				cfg.Mode = mode
				s, err := a.Run(cfg, in, overrides[a.Name], nil, &bytes.Buffer{})
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", a.Name, storage, mode, err)
				}
				outs[mode] = s
			}
			for _, name := range a.Outputs {
				got, _ := outs[codegen.ModeGen].Get(name)
				want, _ := outs[codegen.ModeBase].Get(name)
				if got == nil || want == nil || !got.EqualsApprox(want, 1e-4) {
					t.Errorf("%s over %s X: output %s under Gen differs from Base", a.Name, storage, name)
				}
			}
			for name, n := range outs[codegen.ModeGen].Metrics().Counters {
				if strings.HasPrefix(name, "spoof.bind.") {
					binds[name] += n
				}
			}
		}
	}
	for _, name := range []string{"spoof.bind.view", "spoof.bind.fill", "spoof.bind.nnz"} {
		if binds[name] == 0 {
			t.Errorf("no fused operator of the six algorithms ran under %s", name)
		}
	}
}

// TestBroadcastRegionsFuse: element-wise regions over row and column vectors
// are fused whatever the vector (construction used to decline the Cell plans
// among them, because it costed the per-cell closures they would have run).
// A vector that enters the region from outside makes a Cell operator that
// reads it as one row for all (a uniform register, nothing is filled) —
// KMeans' distances, n×5 over the 1×5 centroid norms. A
// column vector computed next to the matrix it is combined with is a row
// aggregate, and the Row template, which fuses the aggregate too, goes first
// (Coster.overRowAggregate): MLogreg's softmax is two Row operators that
// read nothing but X %*% B, with no rowMaxs or rowSums left beside them,
// and KMeans' P / rowSums(P) is one.
func TestBroadcastRegionsFuse(t *testing.T) {
	for _, c := range []struct {
		a          Algorithm
		ov         map[string]float64
		want, deny []string
	}{
		{MLogreg, map[string]float64{"maxiter": 2, "inneriter": 2, "k": 3},
			[]string{"Row TMP# 1 inputs, 400x2 output"}, []string{" ua(Rmax) ", " ua(Rsum) "}},
		{KMeans, map[string]float64{"maxiter": 2},
			[]string{"Cell TMP# 2 inputs, 400x5 output", "Row TMP# 1 inputs, 400x5 output"}, []string{" ua(Rsum) "}},
	} {
		s := dml.NewSession(codegen.DefaultConfig())
		s.Out = &bytes.Buffer{}
		for name, m := range c.a.Gen(400, 12, 3) {
			s.Bind(name, m)
		}
		for name, v := range c.a.Scalars {
			s.BindScalar(name, v)
		}
		for name, v := range c.ov {
			s.BindScalar(name, v)
		}
		explain, err := s.Explain(c.a.Script)
		if err != nil {
			t.Fatal(err)
		}
		// The block of the loop body as it is planned last, with operator
		// class numbers blanked. (MLogreg plans it twice: first while B is
		// all zeros and X %*% B estimated empty, hence sparse, hence
		// densified by every Row operator that reads it element by element —
		// under that estimate one densification and a materialized rowMaxs
		// beat two.)
		var body string
		for _, block := range strings.Split(explain, "# EXPLAIN block")[1:] {
			block = regexp.MustCompile(`TMP\d+:`).ReplaceAllString(block, "TMP#")
			if strings.Contains(block, c.want[0]) {
				body = block
			}
		}
		for _, op := range c.want {
			if !strings.Contains(body, op) {
				t.Errorf("%s: no operator %q in the loop body:\n%s", c.a.Name, op, body)
			}
		}
		_, after, _ := strings.Cut(body, "hops after fusion:")
		for _, basic := range c.deny {
			if strings.Contains(after, basic) {
				t.Errorf("%s: basic%sleft after fusion:\n%s", c.a.Name, basic, after)
			}
		}
		if err := s.Run(c.a.Script); err != nil {
			t.Fatal(err)
		}
		if n := s.Metrics().Counter("spoof.bind.fill"); n > 0 {
			t.Errorf("%s: %d fused operators over dense inputs ran under spoof.bind.fill", c.a.Name, n)
		}
	}
}
