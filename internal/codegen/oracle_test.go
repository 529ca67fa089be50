package codegen_test

import (
	"fmt"
	"io"
	"math"
	"sync"
	"testing"

	"sysml/internal/algos"
	"sysml/internal/codegen"
	"sysml/internal/data"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/rewrite"
)

// oraclePoints is the largest partition the 2^n scan is run on.
const oraclePoints = 14

// algoCase is one of the six algorithm scripts on one input.
type algoCase struct {
	name string
	a    algos.Algorithm
	in   map[string]*matrix.Matrix
	ov   map[string]float64
}

// algoCases pairs every algorithm with every dataset, at two iterations of
// each loop (one for ALS-CG and one mini-batch for the AutoEncoder, whose
// second pass plans nothing new): a block is planned once however often it
// runs.
func algoCases(datasets []string) []algoCase {
	var out []algoCase
	for _, dn := range datasets {
		var x *matrix.Matrix
		switch dn {
		case "dense":
			x = data.Dense(150000, 10, 3001)
		case "airline":
			x = data.AirlineLike(25000, 3002)
		case "mnist":
			x = data.MnistLike(4000, 3003)
		case "codes":
			x = data.CodesLike(25000, 3004)
		}
		for _, a := range algos.All {
			in := map[string]*matrix.Matrix{"X": x}
			ov := map[string]float64{"maxiter": 2, "inneriter": 2}
			switch a.Name {
			case "L2SVM":
				in["Y"] = data.BinaryLabels(x, 0.05, 3010)
			case "GLM":
				in["Y"] = data.ZeroOneLabels(data.BinaryLabels(x, 0.05, 3010))
			case "MLogreg":
				in["Yfull"] = data.MultiClassIndicator(x, 3, 3010)
				ov["k"] = 3
			case "KMeans":
				in["C0"] = matrix.Rand(5, x.Cols, 1, -1, 1, 3010)
			case "ALS-CG":
				in["U0"] = matrix.Rand(x.Rows, 10, 1, 0.01, 0.1, 3061)
				in["V0"] = matrix.Rand(x.Cols, 10, 1, 0.01, 0.1, 3062)
				ov["rank"], ov["maxiter"] = 1, 1
			case "AutoEncoder":
				ov = map[string]float64{"epochs": 1, "batch": float64(x.Rows), "H1": 64, "H2": 2}
			}
			out = append(out, algoCase{a.Name + "." + dn, a, in, ov})
		}
	}
	return out
}

// searchedDAGs runs c under mode and hands every DAG the optimizer is about
// to search to visit, in order, with the number of the block it belongs to.
// The DAGs are the session's: after the run they hold the constructed plans.
func searchedDAGs(t *testing.T, c algoCase, mode codegen.Mode, visit func(block int, d *hop.DAG, cfg *codegen.Config)) {
	t.Helper()
	block := 0
	restore := codegen.SetSearchHook(func(d *hop.DAG, cfg *codegen.Config) {
		block++
		visit(block, d, cfg)
	})
	defer restore()
	cfg := codegen.DefaultConfig()
	cfg.Mode = mode
	cfg.Reopt.MinSec = math.Inf(1)
	if _, err := c.a.Run(cfg, c.in, c.ov, nil, io.Discard); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
}

// oracleStats is what TestSearchReturnsTheOptimum saw, for its report.
type oracleStats struct {
	partitions, plans, scanned int
	greedyLoss, greedyWorst    float64
	greedyLost                 int
}

// checkSearch holds the search over one DAG to the exhaustive scan: for
// every partition of at most oraclePoints interesting points, the bound is
// at or below the cheapest plan of every subtree cost-based pruning could
// skip with it, Enumerator.Best with every pruning on returns a plan of the
// scan's minimum cost, and so does the scan of the merged partitions when
// that is small enough. The descent that searches oversized partitions is run
// on the same partitions and its loss recorded.
func checkSearch(t *testing.T, where string, d *hop.DAG, cfg *codegen.Config, st *oracleStats) {
	t.Helper()
	const tol = 1e-9
	memo := codegen.Explore(d.Roots(), cfg)
	parts := codegen.BuildPartitions(memo, d.Roots())
	total, sum := 0, 0.0
	for pi, p := range parts {
		n := len(p.Points)
		total += n
		if n == 0 {
			sum += codegen.NewCoster(cfg, memo, p).PlanCost(nil, math.Inf(1))
			continue
		}
		if n > oraclePoints {
			total = oraclePoints + 1
			continue
		}
		at := fmt.Sprintf("%s partition %d (%d points)", where, pi, n)
		// cost[mask]: bit n-1-i of mask is point i, the enumerator's layout.
		co := codegen.NewCoster(cfg, memo, p)
		cost := make([]float64, 1<<n)
		q := make([]bool, n)
		asMap := map[codegen.Edge]bool{}
		for mask := range cost {
			clear(asMap)
			for i := range q {
				if mask>>(n-1-i)&1 == 1 {
					asMap[p.Points[i]] = true
				}
			}
			cost[mask] = co.PlanCost(asMap, math.Inf(1))
		}
		// minSup[mask]: the cheapest plan that materializes at least mask's
		// points — every subtree a scan skips on LowerBound(mask) is a set
		// of such plans, whichever points the scan holds fixed.
		minSup := append([]float64(nil), cost...)
		unsound := false
		for mask := len(cost) - 1; mask >= 0; mask-- {
			for i := 0; i < n; i++ {
				if mask>>i&1 == 0 {
					minSup[mask] = math.Min(minSup[mask], minSup[mask|1<<i])
				}
			}
			for i := range q {
				q[i] = mask>>(n-1-i)&1 == 1
			}
			if lb := co.LowerBound(q); lb > minSup[mask]*(1+tol) && !unsound {
				unsound = true // one report per partition
				t.Errorf("%s: bound %.6g of assignment %0*b exceeds the cheapest plan under it, %.6g", at, lb, n, mask, minSup[mask])
			}
		}
		// Every cut set splits the cost of a plan into a term in S1's points
		// and one in S2's once its own points are materialized.
		bit := func(idxs []int, sub int) (mask int) {
			for k, i := range idxs {
				if sub>>k&1 == 1 {
					mask |= 1 << (n - 1 - i)
				}
			}
			return mask
		}
	cuts:
		for _, cut := range codegen.FindCutSets(memo, p) {
			cs := bit(cut.Points, 1<<len(cut.Points)-1)
			for a := 0; a < 1<<len(cut.S1); a++ {
				for b := 0; b < 1<<len(cut.S2); b++ {
					s1, s2 := bit(cut.S1, a), bit(cut.S2, b)
					if d := cost[cs|s1|s2] + cost[cs] - cost[cs|s1] - cost[cs|s2]; math.Abs(d) > tol*cost[cs] {
						t.Errorf("%s: cut set %+v does not separate: assignments %0*b and %0*b interact by %.3g s", at, cut, n, s1, n, s2, d)
						break cuts
					}
				}
			}
		}
		opt := minSup[0]
		en := codegen.NewEnumerator(cfg, memo, p)
		best := en.Best()
		got := co.PlanCost(best, math.Inf(1))
		if math.Abs(en.BestCost()-got) > tol*got || got > opt*(1+tol) {
			t.Errorf("%s: search returned a plan of cost %.6g (reported %.6g) after %d plans, the scan's optimum is %.6g",
				at, got, en.BestCost(), en.Evaluated, opt)
		}
		sum += opt
		st.partitions++
		st.plans += int(en.Evaluated)
		st.scanned += len(cost)

		greedy := *cfg
		greedy.MaxPointsExact = 0
		ge := codegen.NewEnumerator(&greedy, memo, p)
		ge.Best()
		fnr := 0
		for i, pt := range p.Points {
			if memo.Hop(pt.To).NumConsumers() > 1 {
				fnr |= 1 << (n - 1 - i)
			}
		}
		if c := ge.BestCost(); c > math.Min(cost[0], cost[fnr])*(1+tol) {
			t.Errorf("%s: descent (MaxPointsExact exceeded) returned %.6g, fuse-all costs %.6g and fuse-no-redundancy %.6g", at, c, cost[0], cost[fnr])
		} else if loss := c/opt - 1; loss > tol {
			st.greedyLost++
			st.greedyLoss += loss
			st.greedyWorst = math.Max(st.greedyWorst, loss)
		}
	}
	if total == 0 || total > oraclePoints || len(parts) < 2 {
		return
	}
	// Partitioning off: one scan over the points of all partitions.
	off := *cfg
	off.EnablePartition, off.EnableCostPrune, off.EnableStructPrune = false, false, false
	off.MaxPointsExact = oraclePoints
	en := codegen.NewEnumerator(&off, memo, codegen.MergePartitions(parts))
	en.Best()
	if math.Abs(en.BestCost()-sum) > tol*sum {
		t.Errorf("%s: the partitions' optima sum to %.6g, the scan of the merged partition finds %.6g", where, sum, en.BestCost())
	}
}

// TestSearchReturnsTheOptimum is the exhaustive oracle of the plan search
// (ROADMAP 11a): on every partition the six algorithm scripts produce over a
// dense, a Mnist-like sparse and a compressible input, and on the partitions
// of the random DAG generator, partitioning, cost-based pruning and cut sets
// lose nothing against the 2^n scan with all three off.
func TestSearchReturnsTheOptimum(t *testing.T) {
	var st oracleStats
	for _, c := range algoCases([]string{"dense", "mnist", "codes"}) {
		searchedDAGs(t, c, codegen.ModeGen, func(block int, d *hop.DAG, cfg *codegen.Config) {
			checkSearch(t, fmt.Sprintf("%s block %d", c.name, block), d, cfg, &st)
		})
	}
	fromScripts := st.partitions
	// The generated DAGs are independent cases: parallel subtests, each
	// adding its counts to st when it is done.
	var mu sync.Mutex
	t.Run("generated", func(t *testing.T) {
		for seed := int64(0); seed < 200; seed++ {
			t.Run(fmt.Sprint(seed), func(t *testing.T) {
				t.Parallel()
				sh := dagShape{rows: 60, cols: 24, storage: "dense"}
				if seed >= 100 {
					sh = dagShape{rows: 2000, cols: []int{2, 7, 100}[seed%3], storage: []string{"dense", "csr"}[seed%2], minmax: true}
				}
				cfg := codegen.DefaultConfig()
				d, _ := randomDAGOf(seed, sh)
				dd, _ := rewrite.Apply(d)
				hop.AssignExecTypes(dd.Roots(), cfg.Exec)
				var one oracleStats
				checkSearch(t, fmt.Sprintf("random DAG %d %+v", seed, sh), dd, &cfg, &one)
				mu.Lock()
				defer mu.Unlock()
				st.partitions += one.partitions
				st.plans += one.plans
				st.scanned += one.scanned
				st.greedyLost += one.greedyLost
				st.greedyLoss += one.greedyLoss
				st.greedyWorst = math.Max(st.greedyWorst, one.greedyWorst)
			})
		}
	})
	t.Logf("%d partitions of the algorithms and %d of generated DAGs: %d plans costed where the scans cost %d",
		fromScripts, st.partitions-fromScripts, st.plans, st.scanned)
	t.Logf("descent from the heuristics (MaxPointsExact exceeded) on the same partitions: above the optimum on %d, by %.1f%% on average and %.1f%% at worst",
		st.greedyLost, 100*st.greedyLoss/math.Max(1, float64(st.greedyLost)), 100*st.greedyWorst)
}
