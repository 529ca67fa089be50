package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sysml/internal/cplan"
	"sysml/internal/matrix"
	"sysml/internal/par"
)

// The differential test of the cell-bound skeleton: every operator runs
// compiled (dense programs where the inputs allow, closures otherwise) and
// interpreted (CompileInterpreted: the closure tier over a tree walk), and
// the two must agree within 1e-12 with NaN and ±Inf in the same places. It
// also pins which tier ran, so a body that silently drops to the per-cell
// closures on dense inputs fails here rather than in a benchmark.

// Side inputs of every test plan: 0 flat (main-shaped), 1 scalar, 2 column
// vector, 3 row vector.
var (
	tY   = cplan.Side(0, cplan.AccessCell, 0)
	tS   = cplan.Side(1, cplan.AccessScalar, 0)
	tCol = cplan.Side(2, cplan.AccessCol, 0)
	tRow = cplan.Side(3, cplan.AccessRow, 0)
)

func tBin(op matrix.BinOp, a, b *cplan.CNode) *cplan.CNode { return cplan.Binary(op, a, b) }

// tierBodies are the pinned cell bodies, followed by generated ones.
func tierBodies() map[string]*cplan.CNode {
	x := cplan.Main(0)
	axpy := tBin(matrix.BinAdd, tBin(matrix.BinMul, x, cplan.Lit(3)), cplan.Lit(1))
	bodies := map[string]*cplan.CNode{
		"x":         x,
		"y":         tY,
		"x*y*y":     tBin(matrix.BinMul, tBin(matrix.BinMul, x, tY), tY), // sum(X*Y*Z)
		"x^2":       tBin(matrix.BinPow, x, cplan.Lit(2)),
		"x*x":       tBin(matrix.BinMul, x, x),
		"x*3+1":     axpy,
		"0-x":       tBin(matrix.BinSub, cplan.Lit(0), x),
		"exp(x)*s":  tBin(matrix.BinMul, cplan.Unary(matrix.UnExp, x), tS),
		"log(x)":    cplan.Unary(matrix.UnLog, x), // NaN for negative cells
		"(x*3+1)/y": tBin(matrix.BinDiv, axpy, tY),
		"x*col":     tBin(matrix.BinMul, x, tCol), // broadcasts: closures only
		"x+row":     tBin(matrix.BinAdd, x, tRow),
		"s+2":       tBin(matrix.BinAdd, tS, cplan.Lit(2)), // constant: closures only
	}
	rng := rand.New(rand.NewSource(16))
	bins := []matrix.BinOp{matrix.BinAdd, matrix.BinSub, matrix.BinMul, matrix.BinDiv,
		matrix.BinMin, matrix.BinMax, matrix.BinPow, matrix.BinGt, matrix.BinNeq}
	uns := []matrix.UnOp{matrix.UnExp, matrix.UnAbs, matrix.UnNeg, matrix.UnSqrt, matrix.UnSigmoid, matrix.UnSign}
	var gen func(depth int) *cplan.CNode
	gen = func(depth int) *cplan.CNode {
		if depth == 0 || rng.Intn(4) == 0 {
			switch rng.Intn(6) {
			case 0, 1, 2:
				return x
			case 3:
				return tY
			case 4:
				return tS
			}
			return cplan.Lit(float64(rng.Intn(5)) - 1.5)
		}
		if rng.Intn(3) == 0 {
			return cplan.Unary(uns[rng.Intn(len(uns))], gen(depth-1))
		}
		return tBin(bins[rng.Intn(len(bins))], gen(depth-1), gen(depth-1))
	}
	for i := 0; i < 12; i++ {
		bodies[fmt.Sprintf("gen%d", i)] = gen(3)
	}
	return bodies
}

// leaves reports whether a body reads a vector leaf (main or the flat side),
// the flat side, and a row/column broadcast.
func leaves(n *cplan.CNode) (vec, flat, bcast bool) {
	switch {
	case n.Kind == cplan.NodeMain:
		return true, false, false
	case n.Kind == cplan.NodeSide && n.Access == cplan.AccessCell:
		return true, true, false
	case n.Kind == cplan.NodeSide && n.Access != cplan.AccessScalar:
		return false, false, true
	}
	for _, c := range n.Children {
		v, f, b := leaves(c)
		vec, flat, bcast = vec || v, flat || f, bcast || b
	}
	return vec, flat, bcast
}

// tierInput is one binding of a rows×cols plan.
type tierInput struct {
	name         string
	main         *matrix.Matrix
	sides        []*matrix.Matrix
	denseMain    bool
	flatMatching bool
}

func tierInputs(rows, cols int, seed int64) []tierInput {
	dense := func() *matrix.Matrix { return matrix.Rand(rows, cols, 1, -1, 2, seed) }
	sides := func(flatCols int) []*matrix.Matrix {
		return []*matrix.Matrix{
			matrix.Rand(rows, flatCols, 1, -1, 2, seed+1),
			matrix.NewScalar(1.5),
			matrix.Rand(rows, 1, 1, -1, 2, seed+2),
			matrix.Rand(1, cols, 1, -1, 2, seed+3),
		}
	}
	special := dense()
	for k, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if d := special.Dense(); k*7 < len(d) {
			d[len(d)-1-k*7] = v
		}
	}
	return []tierInput{
		{"dense", dense(), sides(cols), true, true},
		{"dense+nan+inf", special, sides(cols), true, true},
		{"sparse-main", matrix.Rand(rows, cols, 0.3, -1, 2, seed).ToSparse(), sides(cols), false, true},
		{"sparse-side", dense(), append([]*matrix.Matrix{matrix.Rand(rows, cols, 0.3, -1, 2, seed+1).ToSparse()}, sides(cols)[1:]...), true, false},
		{"wide-side", dense(), sides(cols + 1), true, false},
	}
}

// tierShapes: 1, 511, 512 and 513 cells as one column and as one row, and
// 100-column rows around the step (5 rows), tile and ChunkLen boundaries,
// plus rows wider than one step.
var tierShapes = [][2]int{
	{1, 1}, {511, 1}, {512, 1}, {513, 1}, {1, 511}, {1, 512}, {1, 513},
	{1, 100}, {5, 100}, {6, 100}, {cellTileCells/100 + 2, 100}, {3, 513}, {2, 1100},
}

var tierAggs = []matrix.AggOp{matrix.AggSum, matrix.AggSumSq, matrix.AggMin, matrix.AggMax}

func sameCell(got, want float64) bool {
	if math.IsNaN(want) || math.IsInf(want, 0) {
		return math.IsNaN(got) == math.IsNaN(want) && (math.IsNaN(want) || got == want)
	}
	return math.Abs(got-want) <= 1e-12*(1+math.Abs(want))
}

// checkTiers runs the plan compiled and interpreted over one binding and
// compares outputs and the tier taken.
func checkTiers(t *testing.T, tag string, p *cplan.Plan, in tierInput, wantTier Tier) {
	t.Helper()
	compiled, interp := cplan.Compile(p, "TMPC"), cplan.CompileInterpreted(p, "TMPI")
	want, refTier := execCells(matrix.Ctx{}, interp, in.main, in.sides, nil)
	if refTier != TierCell {
		t.Fatalf("%s: interpreted operator ran tier %s", tag, refTier)
	}
	for _, workers := range []int{1, 3} {
		got, tier := execCells(matrix.Ctx{Par: par.NewPool(workers)}, compiled, in.main, in.sides, nil)
		if tier != wantTier {
			t.Fatalf("%s: ran tier %s, want %s", tag, tier, wantTier)
		}
		for q := range want {
			if got[q].IsSparse() != want[q].IsSparse() || got[q].Rows != want[q].Rows || got[q].Cols != want[q].Cols {
				t.Fatalf("%s root %d: output form differs", tag, q)
			}
			gd, wd := got[q].ToDense().Dense(), want[q].ToDense().Dense()
			for i := range wd {
				if !sameCell(gd[i], wd[i]) {
					t.Fatalf("%s root %d cell %d (workers %d): %s tier %v, closure tier %v", tag, q, i, workers, tier, gd[i], wd[i])
				}
			}
		}
	}
}

// tierOf is the tier the skeleton must take: the dense programs need every
// root to read a vector leaf through flat or scalar sides only, a dense
// main, and a dense main-shaped flat side where one is read.
func tierOf(in tierInput, roots ...*cplan.CNode) Tier {
	for _, r := range roots {
		vec, flat, bcast := leaves(r)
		if !vec || bcast || !in.denseMain || (flat && !in.flatMatching) {
			return TierCell
		}
	}
	return TierVec
}

func TestCellTiersAgree(t *testing.T) {
	kinds := []cplan.CellType{cplan.CellNoAgg, cplan.CellRowAgg, cplan.CellColAgg, cplan.CellFullAgg}
	for name, body := range tierBodies() {
		for _, sh := range tierShapes {
			for _, in := range tierInputs(sh[0], sh[1], int64(sh[0]*31+sh[1])) {
				for _, kind := range kinds {
					for _, agg := range tierAggs {
						if kind == cplan.CellNoAgg && agg != matrix.AggSum {
							continue
						}
						p := &cplan.Plan{Type: cplan.TemplateCell, Cell: kind, AggOp: agg, Root: body,
							NumSides: 4, SparseSafe: cplan.ProbeSparseSafe(body)}
						tag := fmt.Sprintf("Cell %s %s(%s) %dx%d %s", kind, agg, name, sh[0], sh[1], in.name)
						checkTiers(t, tag, p, in, tierOf(in, body))
					}
				}
			}
		}
	}
}

// TestCellTierPinned: the two dense operators the hand-written library used
// to cover or miss run the dense programs.
func TestCellTierPinned(t *testing.T) {
	bodies := tierBodies()
	in := tierInputs(40, 100, 5)[0]
	for _, c := range []struct {
		name string
		kind cplan.CellType
		body string
	}{
		{"rowSums(X*Y*Z)", cplan.CellRowAgg, "x*y*y"},
		{"colSums(exp(X)*s)", cplan.CellColAgg, "exp(x)*s"},
		{"sum(X^2)", cplan.CellFullAgg, "x^2"},
	} {
		p := &cplan.Plan{Type: cplan.TemplateCell, Cell: c.kind, AggOp: matrix.AggSum, Root: bodies[c.body], NumSides: 4}
		if _, tier := execCellwise(matrix.Ctx{}, cplan.Compile(p, "TMPP"), in.main, in.sides, nil); tier != TierVec {
			t.Errorf("%s on dense inputs ran tier %s, want vec", c.name, tier)
		}
	}
	// sum(X^2) also as the optimizer builds it: sumsq over the main input.
	p := &cplan.Plan{Type: cplan.TemplateCell, Cell: cplan.CellFullAgg, AggOp: matrix.AggSumSq, Root: cplan.Main(0)}
	if _, tier := execCellwise(matrix.Ctx{}, cplan.Compile(p, "TMPQ"), in.main, nil, nil); tier != TierVec {
		t.Errorf("sumsq(X) on a dense input ran tier %s, want vec", tier)
	}
}

func TestMAggTiersAgree(t *testing.T) {
	bodies := tierBodies()
	groups := [][]string{
		{"x*y*y", "x*x"},         // sum(X*Y), sum(X*Z) shape
		{"x", "exp(x)*s", "x^2"}, // mixed bodies
		{"x*3+1", "x*col"},       // one root needs the closures
		{"gen0", "gen1", "gen2"},
	}
	for _, g := range groups {
		roots := make([]*cplan.CNode, len(g))
		for q, name := range g {
			roots[q] = bodies[name]
		}
		for a := range tierAggs {
			aggs := make([]matrix.AggOp, len(g))
			for q := range aggs {
				aggs[q] = tierAggs[(a+q)%len(tierAggs)]
			}
			p := &cplan.Plan{Type: cplan.TemplateMAgg, Roots: roots, AggOps: aggs,
				NumSides: 4, SparseSafe: cplan.ProbeSparseSafe(roots...)}
			for _, sh := range tierShapes {
				for _, in := range tierInputs(sh[0], sh[1], int64(sh[0]*17+sh[1])) {
					tag := fmt.Sprintf("MAgg %v %v %dx%d %s", g, aggs, sh[0], sh[1], in.name)
					checkTiers(t, tag, p, in, tierOf(in, roots...))
					// The packed 1×k row of the MAgg entry point.
					got, _ := execMAgg(matrix.Ctx{}, cplan.Compile(p, "TMPM"), in.main, in.sides, nil)
					want, _ := execCells(matrix.Ctx{}, cplan.CompileInterpreted(p, "TMPN"), in.main, in.sides, nil)
					for q := range want {
						if !sameCell(got.Dense()[q], want[q].Scalar()) {
							t.Fatalf("%s: packed output %d = %v, want %v", tag, q, got.Dense()[q], want[q].Scalar())
						}
					}
				}
			}
		}
	}
}

func TestHorizontalTiersAgree(t *testing.T) {
	bodies := tierBodies()
	const (
		no, row, col, full = cplan.CellNoAgg, cplan.CellRowAgg, cplan.CellColAgg, cplan.CellFullAgg
	)
	type root struct {
		kind cplan.CellType
		agg  matrix.AggOp
		body string
	}
	sum, sumsq, mn, mx := matrix.AggSum, matrix.AggSumSq, matrix.AggMin, matrix.AggMax
	groups := [][]root{
		{{col, sum, "x"}, {full, sum, "x^2"}, {no, sum, "x*3+1"}}, // the flagship sibling group
		{{col, sum, "x*3+1"}},
		{{col, sum, "x*3+1"}, {no, sum, "0-x"}},
		{{col, sum, "x"}, {no, sum, "x*3+1"}, {no, sum, "0-x"}},
		{{no, sum, "x*3+1"}},
		{{no, sum, "x*3+1"}, {no, sum, "0-x"}},
		{{full, sum, "x*x"}},
		{{row, sum, "x*3+1"}, {full, sumsq, "x"}, {no, sum, "0-x"}},
		{{col, sum, "x"}, {full, sum, "exp(x)*s"}},                // a non-affine root
		{{col, mn, "x"}, {full, mx, "x*y*y"}, {row, mn, "x*3+1"}}, // min/max see every cell
		{{col, sumsq, "(x*3+1)/y"}, {row, sumsq, "log(x)"}, {no, sum, "y"}},
		{{row, sum, "x*y*y"}, {col, mx, "x+row"}, {full, sum, "gen3"}}, // one root needs the closures
		{{col, sum, "gen4"}, {row, mx, "gen5"}, {full, mn, "gen6"}, {no, sum, "gen7"}},
	}
	for gi, g := range groups {
		p := &cplan.Plan{Type: cplan.TemplateHorizontal, NumSides: 4}
		for _, r := range g {
			p.Roots = append(p.Roots, bodies[r.body])
			p.HKinds = append(p.HKinds, r.kind)
			p.AggOps = append(p.AggOps, r.agg)
		}
		p.SparseSafe = cplan.ProbeSparseSafe(p.Roots...)
		for _, sh := range tierShapes {
			for _, in := range tierInputs(sh[0], sh[1], int64(sh[0]*13+sh[1])) {
				tag := fmt.Sprintf("Horizontal group %d %dx%d %s", gi, sh[0], sh[1], in.name)
				checkTiers(t, tag, p, in, tierOf(in, p.Roots...))
			}
		}
	}
}
