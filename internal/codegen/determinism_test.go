package codegen_test

import (
	"io"
	"math"
	"regexp"
	"strings"
	"testing"

	"sysml/internal/algos"
	"sysml/internal/codegen"
	"sysml/internal/dml"
	"sysml/internal/matrix"
)

// TestExplainIsByteIdentical is ROADMAP 11c: the plans of a script do not
// depend on map iteration order. Twenty sessions of each of the six algorithm
// scripts, and of aggregates the sibling pass combines over a 400 KB X (whose
// roots and sides the multi-aggregate pass used to number in the order a map
// yielded them), report the same EXPLAIN text, operator class numbers aside.
func TestExplainIsByteIdentical(t *testing.T) {
	type script struct {
		name, text string
		in         map[string]*matrix.Matrix
		scalars    map[string]float64
	}
	scripts := []script{{
		name: "magg pair", text: "s = sum(X * Y) + sum(abs(X - Y))\nq = sum(X * Z)\nr = sum(Y * Z) + sum(X)",
		in: map[string]*matrix.Matrix{"X": matrix.Rand(2500, 20, 1, -1, 1, 1),
			"Y": matrix.Rand(2500, 20, 1, -1, 1, 2), "Z": matrix.Rand(2500, 20, 1, -1, 1, 3)},
	}}
	for _, a := range algos.All {
		sc := map[string]float64{"maxiter": 2, "inneriter": 2, "rank": 2, "batch": 100}
		for k, v := range a.Scalars {
			if _, ok := sc[k]; !ok {
				sc[k] = v
			}
		}
		scripts = append(scripts, script{a.Name, a.Script, a.Gen(400, 12, 7), sc})
	}
	tmp := regexp.MustCompile(`TMP\d+`)
	for _, sc := range scripts {
		var first string
		for run := 0; run < 20; run++ {
			cfg := codegen.DefaultConfig()
			cfg.Reopt.MinSec = math.Inf(1)
			s := dml.NewSession(cfg)
			s.Out = io.Discard
			for n, m := range sc.in {
				s.Bind(n, m)
			}
			for n, v := range sc.scalars {
				s.BindScalar(n, v)
			}
			text, err := s.Explain(sc.text)
			if err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			text, _, _ = strings.Cut(tmp.ReplaceAllString(text, "TMP"), "\nBUFFER POOL")
			if run == 0 {
				first = text
			} else if text != first {
				t.Fatalf("%s: run %d explains another plan than run 0:\n%s\n--- run 0 ---\n%s", sc.name, run, text, first)
			}
		}
	}
}
