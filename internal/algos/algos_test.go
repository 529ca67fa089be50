package algos

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/compress"
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
			if m.Rows > 1 && m.SizeBytes() >= cfg.CompressMinBytes {
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
	compress.DropAll()
}
