package algos

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/dml"
	"sysml/internal/matrix"
	"sysml/internal/par"
)

// testSizes are the six algorithms at the sizes of their own tests.
var testSizes = []struct {
	a          Algorithm
	rows, cols int
	ov         map[string]float64
}{
	{L2SVM, 500, 10, map[string]float64{"maxiter": 5}},
	{MLogreg, 400, 12, map[string]float64{"maxiter": 3, "inneriter": 4, "k": 3}},
	{GLM, 400, 10, map[string]float64{"maxiter": 3, "inneriter": 4}},
	{KMeans, 500, 8, map[string]float64{"maxiter": 5}},
	{ALSCG, 200, 150, map[string]float64{"maxiter": 2, "rank": 4}},
	{AutoEncoder, 1100, 20, map[string]float64{"epochs": 1, "batch": 256, "H1": 16, "H2": 2}},
}

// runOnPool is Algorithm.Run on a session whose parallel regions run on
// pool.
func runOnPool(t *testing.T, a Algorithm, cfg codegen.Config, in map[string]*matrix.Matrix,
	ov map[string]float64, pool *par.Pool) *dml.Session {
	t.Helper()
	s := dml.NewSession(cfg)
	s.Out = &bytes.Buffer{}
	s.Par = pool
	for name, m := range in {
		s.Bind(name, m)
	}
	for _, vs := range []map[string]float64{a.Scalars, ov} {
		for name, v := range vs {
			s.BindScalar(name, v)
		}
	}
	if err := s.Run(a.Script); err != nil {
		t.Fatalf("%s/%v: %v", a.Name, cfg.Mode, err)
	}
	return s
}

// bitsDiffer names the first cell where got and want differ in their bits,
// or returns "".
func bitsDiffer(got, want *matrix.Matrix) string {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Sprintf("%dx%d against %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Sprintf("[%d,%d] = %v, %v at cap 1", i, j, g, w)
			}
		}
	}
	return ""
}

// ledgerCounts is what the audit ledger counts per operator: executions,
// bytes read and written, and touched cells. Times are left out.
func ledgerCounts(s *dml.Session) map[string][4]float64 {
	out := map[string][4]float64{}
	for _, g := range s.CostAudit().Groups {
		out[g.Op] = [4]float64{float64(g.Count), float64(g.ActualInBytes), float64(g.ActualOutBytes), g.ActualFlops}
	}
	return out
}

// TestAlgorithmsAgreeAcrossWorkerCaps: one plan gives the same bits on 1, 2,
// 4 or 8 workers. The six algorithms at test sizes run under every mode on
// sessions of their own pools, capped at 1, 2, 4 and 8 participants (caps,
// not OS threads); every output equals the cap-1 run bit for bit, and the
// audit ledger counts the same operators, bytes and cells at caps 1 and 2.
func TestAlgorithmsAgreeAcrossWorkerCaps(t *testing.T) {
	for _, tc := range testSizes {
		in := tc.a.Gen(tc.rows, tc.cols, 42)
		for _, mode := range []codegen.Mode{codegen.ModeBase, codegen.ModeFused,
			codegen.ModeGen, codegen.ModeGenFA, codegen.ModeGenFNR} {
			cfg := codegen.DefaultConfig()
			cfg.Mode = mode
			var ref *dml.Session
			for _, w := range []int{1, 2, 4, 8} {
				s := runOnPool(t, tc.a, cfg, in, tc.ov, par.NewPool(w))
				if ref == nil {
					ref = s
					continue
				}
				for _, name := range tc.a.Outputs {
					got, _ := s.Get(name)
					want, _ := ref.Get(name)
					if d := bitsDiffer(got, want); d != "" {
						t.Errorf("%s/%v at cap %d: %s %s", tc.a.Name, mode, w, name, d)
					}
				}
				if w == 2 {
					if got, want := ledgerCounts(s), ledgerCounts(ref); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s/%v: the ledger at cap 2 counts\n%v\nat cap 1\n%v", tc.a.Name, mode, got, want)
					}
				}
			}
		}
	}
}
