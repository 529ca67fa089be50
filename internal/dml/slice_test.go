package dml

import (
	"context"
	"math"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/matrix"
	"sysml/internal/obs"
)

// Row-slice offsets are parameters of a cached block plan: the key holds a
// slice's extent, a reuse writes the current offsets into the plan. Every
// test here runs one block body many times in two sessions — one that
// reuses block plans and one that compiles every execution afresh — and
// compares the outputs after each execution. A wrong patch shows as a
// value; the counts show that the plan really was reused (at the parent
// commit only the counts fail).

// slicePair is a reusing and a recompiling session over the same inputs.
type slicePair struct {
	t            *testing.T
	reuse, fresh *Session
	outputs      []string
}

func newSlicePair(t *testing.T, inputs map[string]*matrix.Matrix, outputs ...string) *slicePair {
	t.Helper()
	mk := func(reuse bool) *Session {
		cfg := codegen.DefaultConfig()
		cfg.ReuseBlockPlans = reuse
		cfg.Reopt.MinSec = math.Inf(1) // counts must not depend on the clock
		s := newTestSessionCfg(cfg)
		for name, m := range inputs {
			s.Bind(name, m.Clone())
		}
		return s
	}
	p := &slicePair{t: t, reuse: mk(true), fresh: mk(false), outputs: outputs}
	t.Cleanup(func() { p.reuse.Close(); p.fresh.Close() })
	return p
}

// run executes body in both sessions under the given scalars and compares
// the outputs.
func (p *slicePair) run(body string, scalars map[string]float64) {
	p.t.Helper()
	for _, s := range []*Session{p.reuse, p.fresh} {
		for name, v := range scalars {
			s.BindScalar(name, v)
		}
		if err := s.Run(body); err != nil {
			p.t.Fatalf("%v: %v", scalars, err)
		}
	}
	for _, name := range p.outputs {
		got, err := p.reuse.Get(name)
		if err != nil {
			p.t.Fatal(err)
		}
		want, _ := p.fresh.Get(name)
		if !got.EqualsApprox(want, 1e-12) {
			p.t.Fatalf("%v: %s under a reused plan differs from a fresh compile", scalars, name)
		}
	}
}

// plans asserts how many blocks the reusing session optimized and reused.
func (p *slicePair) plans(optimized, reused int64) {
	p.t.Helper()
	if p.reuse.Blocks != optimized || p.reuse.BlockCacheHits != reused {
		p.t.Errorf("reusing session optimized %d blocks and reused %d, want %d and %d",
			p.reuse.Blocks, p.reuse.BlockCacheHits, optimized, reused)
	}
}

// autoEncoderBody is the mini-batch block of algos.AutoEncoder.
const autoEncoderBody = `
	nb = hi - lo + 1
	Xb = X[lo:hi, ]
	A1 = sigmoid(Xb %*% W1)
	A2 = sigmoid(A1 %*% W2)
	A3 = sigmoid(A2 %*% W3)
	A4 = A3 %*% W4
	E = A4 - Xb
	D3 = (E %*% t(W4)) * A3 * (1 - A3)
	D2 = (D3 %*% t(W3)) * A2 * (1 - A2)
	D1 = (D2 %*% t(W2)) * A1 * (1 - A1)
	W4 = W4 - alpha * (t(A3) %*% E) / nb
	W3 = W3 - alpha * (t(A2) %*% D3) / nb
	W2 = W2 - alpha * (t(A1) %*% D2) / nb
	W1 = W1 - alpha * (t(Xb) %*% D1) / nb
	obj = sum(E * E) / nb
`

func autoEncoderInputs(x *matrix.Matrix) map[string]*matrix.Matrix {
	const h1, h2 = 16, 2
	m := x.Cols
	scaled := func(rows, cols int, seed int64) *matrix.Matrix {
		return matrix.Rand(rows, cols, 1, 0, 0.1, seed)
	}
	return map[string]*matrix.Matrix{
		"X": x, "W1": scaled(m, h1, 1), "W2": scaled(h1, h2, 2), "W3": scaled(h2, h1, 3), "W4": scaled(h1, m, 4),
	}
}

// TestSlicePlanEveryBatchPosition: the AutoEncoder block at every batch
// position, ending with a short last batch, whose extent differs and which
// therefore gets a plan of its own.
func TestSlicePlanEveryBatchPosition(t *testing.T) {
	for _, tc := range []struct {
		name string
		x    *matrix.Matrix
	}{
		{"dense", matrix.Rand(1100, 20, 1, -1, 1, 5)},
		{"sparse", matrix.Rand(1100, 20, 0.1, -1, 1, 6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newSlicePair(t, autoEncoderInputs(tc.x), "W1", "W2", "W3", "W4", "obj", "Xb")
			const batch = 128 // 8 full batches and one of 76 rows
			var full int64
			for lo := 1; lo <= tc.x.Rows; lo += batch {
				hi := lo + batch - 1
				if hi <= tc.x.Rows {
					full++
				}
				p.run(autoEncoderBody, map[string]float64{"lo": float64(lo), "hi": float64(min(hi, tc.x.Rows)), "alpha": 0.01})
			}
			// One plan for the full batches, one for the short one; the
			// weights' sparsity bucket does not move, so nothing else
			// re-optimizes.
			p.plans(2, full-1)
		})
	}
}

// TestSlicePlanFullThenPartial: a slice that is the whole row range in one
// execution (where a Row template may take the index hop) and a proper part
// in the next is two plans.
func TestSlicePlanFullThenPartial(t *testing.T) {
	x := matrix.Rand(300, 12, 1, -1, 1, 7)
	p := newSlicePair(t, map[string]*matrix.Matrix{"X": x}, "r", "s")
	body := `
		Y = X[lo:hi, 2:5]
		r = rowSums(Y * Y)
		s = sum(Y)
	`
	p.run(body, map[string]float64{"lo": 1, "hi": 300})
	p.run(body, map[string]float64{"lo": 1, "hi": 150})
	p.run(body, map[string]float64{"lo": 151, "hi": 300})
	p.run(body, map[string]float64{"lo": 1, "hi": 300})
	p.plans(2, 2)
}

// TestSlicePlanTwoSlicesOneBlock: two slices of one matrix with the same
// extent in one block keep their own offsets; the same offsets for both
// collapse into one hop and so into another plan.
func TestSlicePlanTwoSlicesOneBlock(t *testing.T) {
	x := matrix.Rand(200, 8, 1, -1, 1, 8)
	p := newSlicePair(t, map[string]*matrix.Matrix{"X": x}, "A", "B", "s")
	body := `
		A = X[a1:a2, ]
		B = X[b1:b2, ]
		s = sum(A * B) + sum(A) - 2 * sum(B)
	`
	p.run(body, map[string]float64{"a1": 1, "a2": 10, "b1": 11, "b2": 20})
	p.run(body, map[string]float64{"a1": 21, "a2": 30, "b1": 5, "b2": 14})
	p.run(body, map[string]float64{"a1": 191, "a2": 200, "b1": 1, "b2": 10})
	p.plans(1, 2)
	p.run(body, map[string]float64{"a1": 3, "a2": 12, "b1": 3, "b2": 12})
	p.run(body, map[string]float64{"a1": 7, "a2": 16, "b1": 7, "b2": 16})
	p.plans(2, 3)
}

// TestSlicePlanColumnBoundsStayLiteral: a column slice over all rows fuses
// into a Row body that has its bounds compiled in, so they stay in the key:
// another column range of the same width is another plan.
func TestSlicePlanColumnBoundsStayLiteral(t *testing.T) {
	x := matrix.Rand(400, 12, 1, -1, 1, 9)
	p := newSlicePair(t, map[string]*matrix.Matrix{"X": x}, "r")
	body := `
		Y = X[, c1:c2]
		r = rowSums(Y * Y)
	`
	p.run(body, map[string]float64{"c1": 2, "c2": 5})
	p.run(body, map[string]float64{"c1": 3, "c2": 6})
	p.run(body, map[string]float64{"c1": 2, "c2": 5})
	p.plans(2, 1)
}

// mlogregInner is the CG step of algos.MLogreg, the block the six
// algorithms execute most often.
const mlogregInner = `
	Q = P * (X %*% S)
	HS = t(X) %*% (Q - P * rowSums(Q)) + lambda * S
	alpha = rsold / max(sum(S * HS), eps)
	D = D + alpha * S
	R = R - alpha * HS
	rsnew = sum(R * R)
	S = R + (rsnew / max(rsold, eps)) * S
	rsold = rsnew
`

// warmInnerBlock returns a session that has planned mlogregInner over an X
// small enough that an execution is mostly what surrounds the operators.
func warmInnerBlock(tb testing.TB) (*Session, []Stmt) {
	cfg := codegen.DefaultConfig()
	cfg.Reopt.MinSec = math.Inf(1)
	s := newTestSessionCfg(cfg)
	s.Bind("X", matrix.Rand(64, 10, 1, -1, 1, 1))
	s.Bind("P", matrix.Rand(64, 2, 1, 0.1, 0.5, 2))
	for i, name := range []string{"S", "R", "D"} {
		s.Bind(name, matrix.Rand(10, 2, 1, -1, 1, int64(3+i)))
	}
	for _, name := range []string{"lambda", "eps", "rsold"} {
		s.BindScalar(name, 1)
	}
	prog, err := Parse(mlogregInner)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.exec(context.Background(), obs.Span{}, prog.Stmts); err != nil {
			tb.Fatal(err)
		}
	}
	return s, prog.Stmts
}

// BenchmarkBlockHit executes the planned inner block of MLogreg: what an
// iteration pays around its operators once the block has its plan.
func BenchmarkBlockHit(b *testing.B) {
	s, stmts := warmInnerBlock(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.exec(context.Background(), obs.Span{}, stmts); err != nil {
			b.Fatal(err)
		}
	}
}
