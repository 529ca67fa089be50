package dist

import (
	"fmt"
	"io"
	"math"
	"testing"

	"sysml/internal/algos"
	"sysml/internal/codegen"
	"sysml/internal/dml"
	"sysml/internal/matrix"
	"sysml/internal/par"
)

// TestDistAgreesAcrossWorkerCapsAndFaults: at a fixed executor count, 3 or
// 6, the six algorithms at test sizes run distributed under Gen give the
// same bits on pools capped at 1, 2, 4 and 8 participants (the session's
// pool and the default pool the panel kernels run on), and the same bits
// again when a fault plan kills an executor and fails tasks transiently:
// the panels, their owners and the reduction tree are fixed by the
// executor count, not by who ran which panel or how often.
func TestDistAgreesAcrossWorkerCapsAndFaults(t *testing.T) {
	defer par.SetMaxWorkers(par.MaxWorkers())
	sizes := map[string][3]int{ // rows, cols, iterations
		"L2SVM": {500, 10, 3}, "MLogreg": {400, 12, 2}, "GLM": {400, 10, 2},
		"KMeans": {500, 8, 3}, "ALS-CG": {200, 150, 1}, "AutoEncoder": {600, 20, 1},
	}
	for _, a := range algos.All {
		sz := sizes[a.Name]
		in := a.Gen(sz[0], sz[1], 42)
		ov := map[string]float64{"maxiter": float64(sz[2]), "inneriter": 3, "k": 3, "rank": 4,
			"epochs": float64(sz[2]), "batch": 256, "H1": 16, "H2": 2}
		for _, execs := range []int{3, 6} {
			var ref map[string]*matrix.Matrix
			for _, run := range []struct {
				cap   int
				fault *FaultPlan
			}{{1, nil}, {2, nil}, {4, nil}, {8, nil},
				{2, fastBackoff(&FaultPlan{Seed: 7, TransientRate: 0.1, KillExecutor: 1, KillAtTask: 5})}} {
				opts := []Option{WithExecutors(execs)}
				if run.fault != nil {
					opts = append(opts, WithFaultPlan(run.fault))
				}
				cl := NewCluster(opts...)
				cl.Blocksize = 64
				par.SetMaxWorkers(run.cap)
				cfg := codegen.DefaultConfig()
				cfg.Mode = codegen.ModeGen
				cfg.Exec.MemBudgetBytes = in["X"].SizeBytes() / 2 // X's operators run distributed
				s := dml.NewSession(cfg)
				s.Dist, s.Out, s.Par = cl, io.Discard, par.NewPool(run.cap)
				for name, m := range in {
					s.Bind(name, m)
				}
				for _, vs := range []map[string]float64{a.Scalars, ov} {
					for name, v := range vs {
						s.BindScalar(name, v)
					}
				}
				tag := fmt.Sprintf("%s, %d executors, cap %d, faults %v", a.Name, execs, run.cap, run.fault != nil)
				if err := s.Run(a.Script); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if s.Metrics().Counter("exec.dist.ops") == 0 {
					t.Fatalf("%s: nothing ran distributed", tag)
				}
				if st := cl.FaultStats(); run.fault != nil && (st.Kills != 1 || st.TransientInjected == 0 || st.Degraded != 0) {
					t.Fatalf("%s: %+v, want a kill, transient failures and no degradation", tag, st)
				}
				got := map[string]*matrix.Matrix{}
				for _, name := range a.Outputs {
					got[name], _ = s.Get(name)
				}
				if ref == nil {
					ref = got
					continue
				}
				for name, want := range ref {
					if d := bitsDiffer(got[name], want); d != "" {
						t.Errorf("%s: %s %s", tag, name, d)
					}
				}
			}
		}
	}
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
				return fmt.Sprintf("[%d,%d] = %v, %v in the first run", i, j, g, w)
			}
		}
	}
	return ""
}
