package main

import (
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/serve"
)

// testScale keeps every workload to fractions of a second.
const testScale = 0.01

// perturbed returns a copy of got in which one cell of output name is off
// by 1e-3 (relative to max(1,|v|)).
func perturbed(got map[string]mat, name string) map[string]mat {
	out := map[string]mat{}
	for k, m := range got {
		out[k] = mat{m.Rows, m.Cols, append([]float64(nil), m.Data...)}
	}
	m := out[name]
	k := len(m.Data) / 2
	scale := 1.0
	if v := m.Data[k]; v > 1 || v < -1 {
		scale = v
	}
	m.Data[k] += 1e-3 * scale
	return out
}

// rejectsPerturbation runs p once, asserts its check accepts the real
// outputs and rejects them once any single output has one cell off by
// 1e-3: a checker that cannot fail must not pass.
func rejectsPerturbation(t *testing.T, p *program, outputs []string) {
	t.Helper()
	if p.reference != nil {
		if err := p.reference(); err != nil {
			t.Fatalf("%s: reference: %v", p.name, err)
		}
	}
	sess, err := p.exec()
	if err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	got, err := gather(sess, p.outputs)
	if err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	if err := p.check(got, 1); err != nil {
		t.Fatalf("%s: correct outputs rejected: %v", p.name, err)
	}
	for _, name := range outputs {
		if err := p.check(perturbed(got, name), 1); err == nil {
			t.Errorf("%s: output %s off by 1e-3 in one cell was accepted", p.name, name)
		}
	}
}

func TestNaiveLoopChecksRejectPerturbation(t *testing.T) {
	st, err := buildFused(config{seed: 1, scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range st.programs {
		rejectsPerturbation(t, p, p.outputs)
	}
}

func TestBaseModeChecksRejectPerturbation(t *testing.T) {
	cfg := config{seed: 1, scale: testScale}
	for _, build := range []func(config) (*batchState, error){buildAlgosDense, buildAlgosSparse} {
		st, err := build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range st.programs {
			if p.name == "alscg.amazon" {
				continue // no Base reference; see TestALSLossCheckRejectsPerturbation
			}
			rejectsPerturbation(t, p, p.outputs)
		}
	}
}

// The ALS check recomputes the loss from the returned factors, so it
// catches a loss that does not belong to them; it does not pin the factors
// themselves (README.md says so).
func TestALSLossCheckRejectsPerturbation(t *testing.T) {
	st, err := buildAlgosSparse(config{seed: 1, scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range st.programs {
		if p.name == "alscg.amazon" {
			if p.reference != nil {
				t.Fatalf("%s has a Base reference; the test wants the loss check alone", p.name)
			}
			rejectsPerturbation(t, p, []string{"loss"})
		}
	}
}

func TestServeResponseCheckRejectsPerturbation(t *testing.T) {
	for k := range hotKinds {
		q := hotRequest(0, k, 1)
		ref, err := directRun(q.req, config{}.optimizer(codegen.ModeBase))
		if err != nil {
			t.Fatal(err)
		}
		got, err := directRun(q.req, config{}.optimizer(codegen.ModeGen))
		if err != nil {
			t.Fatal(err)
		}
		resp := func(out map[string]mat) *serve.RunResponse {
			r := &serve.RunResponse{Outputs: map[string]serve.OutputMatrix{}}
			for name, m := range out {
				r.Outputs[name] = serve.OutputMatrix{Rows: m.Rows, Cols: m.Cols, Data: m.Data}
			}
			return r
		}
		if err := checkResponse(resp(got), ref); err != nil {
			t.Fatalf("%s: correct response rejected: %v", q.kind, err)
		}
		for _, name := range q.req.Outputs {
			if err := checkResponse(resp(perturbed(got, name)), ref); err == nil {
				t.Errorf("%s: output %s off by 1e-3 in one cell was accepted", q.kind, name)
			}
		}
	}
}

func TestCompareSamplesOnlyLargeOutputs(t *testing.T) {
	small := mat{1, 100, make([]float64, 100)}
	bad := mat{1, 100, make([]float64, 100)}
	bad.Data[50] = 1
	if compare("x", bad, small, tolFused, sampleStride) == nil {
		t.Error("a stride skipped a cell of a small output")
	}
}
