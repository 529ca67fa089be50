package dml_test

import (
	"errors"
	"os"
	"testing"

	"sysml/internal/algos"
	"sysml/internal/dml"
)

// FuzzParse feeds arbitrary text to the parser, seeded with the algorithm
// scripts, the demo script and fragments of each statement form: it must
// never panic, and every error it returns is a *dml.ParseError.
func FuzzParse(f *testing.F) {
	for _, a := range algos.All {
		f.Add(a.Script)
	}
	if demo, err := os.ReadFile("../../examples/scripts/demo.dml"); err == nil {
		f.Add(string(demo))
	}
	for _, src := range []string{
		"x = ", "if (x { }", "x = foo(", `x = "unterminated`, "x = 1 $ 2", "while (1) x = 2",
		"X[1:20, 3] = t(Y) %*% Z\nprint(\"a\" + 1.5e-3)",
		"for (i in 1:10) { s = s + i } else { }",
		"if (a > 0 & !b) { c = -a ^ 2 } else if (a == 0) { c = 0 }",
		"f = function(x) { return x }\n# comment\ny <- rowSums(X[, 2:3])",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, err := dml.Parse(src)
		var pe *dml.ParseError
		if err != nil && !errors.As(err, &pe) {
			t.Fatalf("Parse(%q): %T %v, not a *dml.ParseError", src, err, err)
		}
	})
}
