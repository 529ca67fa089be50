package dml

import (
	"io"
	"math"
	"strings"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/matrix"
)

// TestEnvRecyclingSameBlockAlias pins the hazard the batch release in
// setEnvAll exists for: a block whose outputs alias each other
// (tmp = Y; Y = Y + 1) must not recycle Y's old storage while tmp still
// references it.
func TestEnvRecyclingSameBlockAlias(t *testing.T) {
	s := newTestSession(codegen.ModeGen)
	s.Bind("X", matrix.Rand(50, 40, 1, -1, 1, 3))
	if err := s.Run("Y = X + 1\n"); err != nil {
		t.Fatal(err)
	}
	wantOld := s.Env["Y"].ToDense().Dense()
	snapshot := append([]float64(nil), wantOld...)
	if err := s.Run("tmp = Y\nY = Y + 1\n"); err != nil {
		t.Fatal(err)
	}
	tmp := s.Env["tmp"].ToDense().Dense()
	y := s.Env["Y"].ToDense().Dense()
	for i := range snapshot {
		if tmp[i] != snapshot[i] {
			t.Fatalf("tmp cell %d corrupted by recycling: got %v want %v", i, tmp[i], snapshot[i])
		}
		if math.Abs(y[i]-(snapshot[i]+1)) > 1e-12 {
			t.Fatalf("Y cell %d: got %v want %v", i, y[i], snapshot[i]+1)
		}
	}
}

// TestEnvRecyclingKeepsBoundInputs: reassigning a variable the user bound
// must not recycle the user's matrix.
func TestEnvRecyclingKeepsBoundInputs(t *testing.T) {
	s := newTestSession(codegen.ModeGen)
	x := matrix.Rand(30, 30, 1, -1, 1, 5)
	orig := append([]float64(nil), x.Dense()...)
	s.Bind("X", x)
	for i := 0; i < 3; i++ {
		if err := s.Run("X = X + 1\nZ = X * 2\n"); err != nil {
			t.Fatal(err)
		}
	}
	for i := range orig {
		if x.Dense()[i] != orig[i] {
			t.Fatalf("bound input cell %d overwritten/recycled: got %v want %v",
				i, x.Dense()[i], orig[i])
		}
	}
}

// TestHorizontalEndToEnd runs the flagship sibling script through the full
// session path: merged results must match Base mode, EXPLAIN must show the
// merged Horizontal operator at scale and decline it on a tiny input, and
// the binding counters must attribute the run to views of the dense input.
func TestHorizontalEndToEnd(t *testing.T) {
	script := "C = colSums(X)\ns = sum(X^2)\nY = X*3+1\n"
	x := matrix.Rand(1024, 1024, 1, -1, 1, 17)

	gen := newTestSession(codegen.ModeGen)
	gen.Bind("X", x)
	base := newTestSession(codegen.ModeBase)
	base.Bind("X", x)
	if err := gen.Run(script); err != nil {
		t.Fatal(err)
	}
	if err := base.Run(script); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"C", "s", "Y"} {
		g, b := gen.Env[name].ToDense().Dense(), base.Env[name].ToDense().Dense()
		for i := range b {
			if math.Abs(g[i]-b[i]) > 1e-9*math.Abs(b[i])+1e-12 {
				t.Fatalf("%s cell %d: gen %v base %v", name, i, g[i], b[i])
			}
		}
	}

	snap := gen.Metrics()
	if snap.Counter("spoof.bind.view") == 0 || snap.Counter("spoof.bind.fill")+snap.Counter("spoof.bind.nnz")+snap.Counter("spoof.bind.dict") != 0 {
		t.Errorf("dense horizontal run must count under spoof.bind.view only: view %d fill %d nnz %d dict %d",
			snap.Counter("spoof.bind.view"), snap.Counter("spoof.bind.fill"), snap.Counter("spoof.bind.nnz"), snap.Counter("spoof.bind.dict"))
	}

	explain := func(m *matrix.Matrix) string {
		s := NewSession(codegen.DefaultConfig())
		s.Out = io.Discard
		s.Bind("X", m)
		text, err := s.Explain(script)
		if err != nil {
			t.Fatal(err)
		}
		return text
	}
	big := explain(x)
	if !strings.Contains(big, "HORIZONTAL") || !strings.Contains(big, "Horizontal TMP") {
		t.Fatalf("EXPLAIN at scale must show the merged Horizontal operator:\n%s", big)
	}
	if strings.Contains(big, " tier ") {
		t.Fatalf("EXPLAIN still reports a compile-time tier (an operator has one body):\n%s", big)
	}
	tiny := explain(matrix.Rand(50, 50, 1, -1, 1, 18))
	if strings.Contains(tiny, "Horizontal TMP") {
		t.Fatalf("tiny input must keep the vertical-only plan:\n%s", tiny)
	}
}
