package codegen_test

import (
	"fmt"
	"testing"
	"time"

	"sysml/internal/codegen"
	"sysml/internal/hop"
	"sysml/internal/rewrite"
)

// modelCost is the model's price of a constructed plan: the predictions the
// optimizer leaves on the operators of the DAG it returns, fused operators
// priced over the regions construction gave them (after declines, template
// fallbacks, sibling merging), basic operators as the
// search prices them — one pricing function (opSec) behind all of it.
func modelCost(d *hop.DAG) float64 {
	var sec float64
	for _, h := range hop.TopoOrder(d.Roots()) {
		sec += h.PredSec
	}
	return sec
}

// loss says how the plan Gen constructed (plans[0]) is dearer under the
// model than Gen-FA's or Gen-FNR's, or is "" where it is not.
func loss(plans [3]*hop.DAG) string {
	gen := modelCost(plans[0])
	for m, mode := range []string{"Gen-FA", "Gen-FNR"} {
		if sec := modelCost(plans[m+1]); gen > sec*(1+1e-9) {
			return fmt.Sprintf("Gen's constructed plan costs %.6g under the model, %s's %.6g", gen, mode, sec)
		}
	}
	return ""
}

// TestGenDominatesTheHeuristics is ROADMAP 11b: under the model, the plan Gen
// constructs is never dearer than the ones Gen-FA and Gen-FNR construct, on
// every block of the six algorithms at the benchmark's input sizes and on
// dominanceSeeds generated DAGs.
func TestGenDominatesTheHeuristics(t *testing.T) {
	modes := []codegen.Mode{codegen.ModeGen, codegen.ModeGenFA, codegen.ModeGenFNR}
	blocks := 0
	start := time.Now()
	for _, c := range algoCases([]string{"dense", "airline", "mnist"}) {
		var dags [3][]*hop.DAG
		var before [3][]string
		for m, mode := range modes {
			searchedDAGs(t, c, mode, func(_ int, d *hop.DAG, _ *codegen.Config) {
				dags[m] = append(dags[m], d)
				before[m] = append(before[m], hop.Explain(d.Roots()))
			})
		}
		for b := range dags[0] {
			where := fmt.Sprintf("%s block %d", c.name, b+1)
			if b >= len(dags[1]) || b >= len(dags[2]) || before[0][b] != before[1][b] || before[0][b] != before[2][b] {
				t.Fatalf("%s: the modes did not plan the same block", where)
			}
			if l := loss([3]*hop.DAG{dags[0][b], dags[1][b], dags[2][b]}); l != "" {
				t.Errorf("%s: %s", where, l)
			}
			blocks++
		}
	}
	t.Logf("algorithms done after %v", time.Since(start))
	// The generated DAGs are independent cases: parallel subtests.
	t.Run("generated", func(t *testing.T) {
		for seed := int64(0); seed < dominanceSeeds; seed++ {
			t.Run(fmt.Sprint(seed), func(t *testing.T) {
				t.Parallel()
				sh := dagShape{rows: 60, cols: 24, storage: "dense"}
				if seed >= 100 {
					sh = dagShape{rows: 2000, cols: []int{2, 7, 100}[seed%3], storage: []string{"dense", "csr"}[seed%2], minmax: true}
				}
				var plans [3]*hop.DAG
				for m, mode := range modes {
					d, _ := randomDAGOf(seed, sh)
					dd, _ := rewrite.Apply(d)
					cfg := codegen.DefaultConfig()
					cfg.Mode = mode
					plans[m] = codegen.Optimize(dd, &cfg, codegen.NewPlanCacheSized(true, 0), codegen.NewStats())
				}
				if l := loss(plans); l != "" {
					t.Errorf("random DAG %d %+v: %s", seed, sh, l)
				}
			})
		}
	})
	t.Logf("%d algorithm blocks and %d generated DAGs", blocks, dominanceSeeds)
}
