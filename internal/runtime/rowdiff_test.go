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

// Differential test of the Row tile executor: random Row-template bodies
// over every main width, row count around the tile height, main
// representation, side-input kind and RowType, checked against a reference
// that materializes every CNode as a whole matrix and evaluates it with
// plain loops (what ModeBase does with one basic operator per node).

// rowSideKind enumerates how a generated body reads a side input.
type rowSideKind int

const (
	sideScalar   rowSideKind = iota // 1×1, AccessScalar
	sideCol                         // rows×1, AccessCol
	sideRowVec                      // 1×w, AccessRow
	sideColAsVec                    // w×1 read as one length-w vector, AccessRow
	sideCell                        // rows×w, AccessCell
	sideMM                          // k×n right operand of an RMatMul
	numSideKinds
)

type rowSide struct {
	kind       rowSideKind
	rows, cols int  // rows == 0: as many as the main input
	sparse     bool // stored as CSR
}

// rowBody is one generated Row plan with the sides it reads.
type rowBody struct {
	plan  *cplan.Plan
	sides []rowSide
}

type rowGen struct {
	rng     *rand.Rand
	w       int
	capable bool // only sparse-safe uses of the main row
	sides   []rowSide
	vecs    []*cplan.CNode
	scals   []*cplan.CNode
	kinds   *[numSideKinds]int
}

func (g *rowGen) side(kind rowSideKind, rows, cols int) int {
	g.sides = append(g.sides, rowSide{kind: kind, rows: rows, cols: cols, sparse: g.rng.Intn(4) == 0})
	g.kinds[kind]++
	return len(g.sides) - 1
}

func (g *rowGen) pickVec() *cplan.CNode { return g.vecs[g.rng.Intn(len(g.vecs))] }

// vecLeaf returns a fresh vector leaf of the given width.
func (g *rowGen) vecLeaf(width int) *cplan.CNode {
	switch g.rng.Intn(3) {
	case 0:
		return cplan.Side(g.side(sideRowVec, 1, width), cplan.AccessRow, width)
	case 1:
		return cplan.Side(g.side(sideColAsVec, width, 1), cplan.AccessRow, width)
	default:
		return cplan.Side(g.side(sideCell, 0, width), cplan.AccessCell, width)
	}
}

func (g *rowGen) scalLeaf() *cplan.CNode {
	switch g.rng.Intn(3) {
	case 0:
		return cplan.Lit(0.5 + g.rng.Float64())
	case 1:
		return cplan.Side(g.side(sideScalar, 1, 1), cplan.AccessScalar, 0)
	default:
		return cplan.Side(g.side(sideCol, 0, 1), cplan.AccessCol, 0)
	}
}

var (
	diffBinOps = []matrix.BinOp{matrix.BinAdd, matrix.BinSub, matrix.BinMul, matrix.BinMin, matrix.BinMax, matrix.BinGt, matrix.BinNeq}
	diffUnOps  = []matrix.UnOp{matrix.UnAbs, matrix.UnSigmoid, matrix.UnNeg, matrix.UnSign}
	diffAggOps = []matrix.AggOp{matrix.AggSum, matrix.AggSumSq, matrix.AggMin, matrix.AggMax, matrix.AggMean}
)

// genRowBody builds a random body of steps operations over a main row of
// width w, rooted as rowT requires. capable restricts the main row to
// sparse-safe uses; densify guarantees one use that is not.
func genRowBody(rng *rand.Rand, w int, rowT cplan.RowType, capable, densify bool, kinds *[numSideKinds]int) rowBody {
	g := &rowGen{rng: rng, w: w, capable: capable, kinds: kinds}
	main := cplan.Main(w)
	if capable {
		// The main row enters through a product, a dot or a sum only.
		n := 1 + rng.Intn(9)
		g.vecs = append(g.vecs, cplan.MatMultNode(main, g.side(sideMM, w, n), n))
		g.scals = append(g.scals,
			cplan.Agg(matrix.AggSum, cplan.Binary(matrix.BinMul, main, g.vecLeaf(w))),
			cplan.Agg([]matrix.AggOp{matrix.AggSum, matrix.AggSumSq}[rng.Intn(2)], main))
	} else {
		g.vecs = append(g.vecs, main)
	}
	g.scals = append(g.scals, g.scalLeaf())
	for step, steps := 0, 3+rng.Intn(7); step < steps; step++ {
		a := g.pickVec()
		switch rng.Intn(9) {
		case 0: // vector op vector of the same width
			b := g.vecLeaf(a.Width)
			if rng.Intn(2) == 0 {
				for _, v := range g.vecs {
					if v.Width == a.Width && v != a {
						b = v
					}
				}
			}
			g.vecs = append(g.vecs, cplan.Binary(diffBinOps[rng.Intn(len(diffBinOps))], a, b))
		case 1: // vector op scalar, either order
			s := g.scals[rng.Intn(len(g.scals))]
			op := diffBinOps[rng.Intn(len(diffBinOps))]
			if rng.Intn(2) == 0 {
				g.vecs = append(g.vecs, cplan.Binary(op, a, s))
			} else {
				g.vecs = append(g.vecs, cplan.Binary(op, s, a))
			}
		case 2: // division and power by a literal
			if rng.Intn(2) == 0 {
				g.vecs = append(g.vecs, cplan.Binary(matrix.BinDiv, a, cplan.Lit(0.5+rng.Float64())))
			} else {
				g.vecs = append(g.vecs, cplan.Binary(matrix.BinPow, a, cplan.Lit(2)))
			}
		case 3:
			g.vecs = append(g.vecs, cplan.Unary(diffUnOps[rng.Intn(len(diffUnOps))], a))
		case 4:
			g.scals = append(g.scals, cplan.Agg(diffAggOps[rng.Intn(len(diffAggOps))], a))
		case 5:
			n := 1 + rng.Intn(12)
			g.vecs = append(g.vecs, cplan.MatMultNode(a, g.side(sideMM, a.Width, n), n))
		case 6:
			if a.Width > 1 {
				cl := rng.Intn(a.Width - 1)
				g.vecs = append(g.vecs, cplan.Idx(a, cl, cl+1+rng.Intn(a.Width-cl-1)))
			} else {
				g.vecs = append(g.vecs, cplan.CumsumNode(a))
			}
		case 7: // scalar arithmetic
			x, y := g.scals[rng.Intn(len(g.scals))], g.scalLeaf()
			g.scals = append(g.scals, cplan.Binary(diffBinOps[rng.Intn(3)], x, y),
				cplan.Unary(matrix.UnSigmoid, x))
		case 8:
			g.vecs = append(g.vecs, cplan.CumsumNode(a))
		}
		g.scals = append(g.scals, g.scalLeaf())
	}
	root := g.vecs[len(g.vecs)-1]
	if root == main {
		root = cplan.Binary(matrix.BinMul, root, cplan.Lit(2))
	}
	if densify {
		// rowMaxs needs the implicit zeros of the main row.
		root = cplan.Binary(matrix.BinAdd, root, cplan.Agg(matrix.AggMax, main))
	}
	switch rowT {
	case cplan.RowRowAgg, cplan.RowFullAgg:
		root = cplan.Binary(matrix.BinAdd, cplan.Agg(matrix.AggSum, root), g.scals[len(g.scals)-2])
	case cplan.RowColAggT:
		if rng.Intn(3) == 0 {
			root = cplan.Agg(matrix.AggSum, root)
		}
	}
	plan := &cplan.Plan{Type: cplan.TemplateRow, Row: rowT, Root: root, NumSides: len(g.sides), MainWidth: w}
	if rowT == cplan.RowColAgg || rowT == cplan.RowFullAgg {
		// colMins/colMaxs/min/max of the body: the plan names the fold.
		plan.AggOp = []matrix.AggOp{matrix.AggSum, matrix.AggMin, matrix.AggMax}[rng.Intn(3)]
	}
	return rowBody{plan: plan, sides: g.sides}
}

// refVal is a materialized CNode: rows×w cells (w == 1 for scalars).
type refVal struct {
	w int
	d []float64
}

// refEval materializes node n over all rows, one plain loop per node.
func refEval(n *cplan.CNode, x *matrix.Matrix, sides []*matrix.Matrix, memo map[*cplan.CNode]refVal) refVal {
	if v, ok := memo[n]; ok {
		return v
	}
	rows := x.Rows
	out := func(w int) refVal { return refVal{w, make([]float64, rows*w)} }
	var v refVal
	switch n.Kind {
	case cplan.NodeMain:
		v = out(x.Cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < x.Cols; j++ {
				v.d[i*x.Cols+j] = x.At(i, j)
			}
		}
	case cplan.NodeLit:
		v = out(1)
		for i := range v.d {
			v.d[i] = n.Value
		}
	case cplan.NodeSide:
		s := sides[n.Side]
		w := max(n.Width, 1)
		v = out(w)
		for i := 0; i < rows; i++ {
			for j := 0; j < w; j++ {
				switch n.Access {
				case cplan.AccessScalar:
					v.d[i] = s.At(0, 0)
				case cplan.AccessCol:
					v.d[i] = s.At(i, 0)
				case cplan.AccessRow: // a 1×w row or a w×1 column, read as one vector
					if s.Rows == 1 {
						v.d[i*w+j] = s.At(0, j)
					} else {
						v.d[i*w+j] = s.At(j, 0)
					}
				default:
					v.d[i*w+j] = s.At(i, j)
				}
			}
		}
	case cplan.NodeBinary:
		a := refEval(n.Children[0], x, sides, memo)
		b := refEval(n.Children[1], x, sides, memo)
		w := max(a.w, b.w)
		v = out(w)
		for i := 0; i < rows; i++ {
			for j := 0; j < w; j++ {
				v.d[i*w+j] = n.BinOp.Apply(a.d[i*a.w+j%a.w], b.d[i*b.w+j%b.w])
			}
		}
	case cplan.NodeUnary:
		a := refEval(n.Children[0], x, sides, memo)
		v = out(a.w)
		for i, e := range a.d {
			v.d[i] = n.UnOp.Apply(e)
		}
	case cplan.NodeAgg:
		a := refEval(n.Children[0], x, sides, memo)
		v = out(1)
		for i := 0; i < rows; i++ {
			row := a.d[i*a.w : (i+1)*a.w]
			var acc float64
			switch n.AggOp {
			case matrix.AggMin:
				acc = math.Inf(1)
			case matrix.AggMax:
				acc = math.Inf(-1)
			}
			for _, e := range row {
				switch n.AggOp {
				case matrix.AggSumSq:
					acc += e * e
				case matrix.AggMin:
					acc = matrix.BinMin.Apply(acc, e)
				case matrix.AggMax:
					acc = matrix.BinMax.Apply(acc, e)
				default:
					acc += e
				}
			}
			if n.AggOp == matrix.AggMean {
				acc /= float64(a.w)
			}
			v.d[i] = acc
		}
	case cplan.NodeMatMult:
		a := refEval(n.Children[0], x, sides, memo)
		s := sides[n.Side]
		v = out(s.Cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < s.Cols; j++ {
				var acc float64
				for k := 0; k < a.w; k++ {
					acc += a.d[i*a.w+k] * s.At(k, j)
				}
				v.d[i*s.Cols+j] = acc
			}
		}
	case cplan.NodeIdx:
		a := refEval(n.Children[0], x, sides, memo)
		w := n.CU - n.CL
		v = out(w)
		for i := 0; i < rows; i++ {
			copy(v.d[i*w:(i+1)*w], a.d[i*a.w+n.CL:])
		}
	case cplan.NodeCumsum:
		a := refEval(n.Children[0], x, sides, memo)
		v = out(a.w)
		for i := 0; i < rows; i++ {
			var acc float64
			for j := 0; j < a.w; j++ {
				acc += a.d[i*a.w+j]
				v.d[i*a.w+j] = acc
			}
		}
	default:
		panic("rowdiff: unexpected node kind")
	}
	memo[n] = v
	return v
}

// refRow is the reference result of the whole operator: the materialized
// root folded the way rowT says.
func refRow(p *cplan.Plan, x *matrix.Matrix, sides []*matrix.Matrix) *matrix.Matrix {
	r := refEval(p.Root, x, sides, map[*cplan.CNode]refVal{})
	rows, w := x.Rows, r.w
	switch p.Row {
	case cplan.RowNoAgg, cplan.RowRowAgg:
		return matrix.NewDenseData(rows, w, r.d)
	case cplan.RowColAgg:
		out := matrix.NewDense(1, w)
		for j := range out.Dense() {
			out.Dense()[j] = cplan.AggInit(p.AggOp)
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < w; j++ {
				out.Dense()[j] = cplan.AggMerge(p.AggOp, out.Dense()[j], r.d[i*w+j])
			}
		}
		return out
	case cplan.RowFullAgg:
		acc := cplan.AggInit(p.AggOp)
		for _, e := range r.d {
			acc = cplan.AggMerge(p.AggOp, acc, e)
		}
		return matrix.NewScalar(acc)
	default: // RowColAggT: t(X) %*% R
		out := matrix.NewDense(x.Cols, w)
		for i := 0; i < rows; i++ {
			for k := 0; k < x.Cols; k++ {
				xv := x.At(i, k)
				for j := 0; j < w; j++ {
					out.Dense()[k*w+j] += xv * r.d[i*w+j]
				}
			}
		}
		return out
	}
}

func buildSides(specs []rowSide, rows int, seed int64) []*matrix.Matrix {
	out := make([]*matrix.Matrix, len(specs))
	for i, s := range specs {
		r := s.rows
		if r == 0 {
			r = rows
		}
		m := matrix.Rand(r, s.cols, 1, 0.2, 1.5, seed+int64(i))
		if s.sparse && s.kind != sideScalar {
			m = matrix.Rand(r, s.cols, 0.4, 0.2, 1.5, seed+int64(i)).ToSparse()
		}
		out[i] = m
	}
	return out
}

// closeTo compares within 1e-9 of the larger of the two values and the
// output's overall magnitude (the executor and the reference sum in
// different orders).
func closeTo(got, want *matrix.Matrix) (int, int, bool) {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return -1, -1, false
	}
	var scale float64 = 1
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			if a := math.Abs(want.At(i, j)); a > scale && !math.IsInf(a, 0) {
				scale = a
			}
		}
	}
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			g, w := got.At(i, j), want.At(i, j)
			if g == w || (math.IsNaN(g) && math.IsNaN(w)) {
				continue
			}
			if !(math.Abs(g-w) <= 1e-9*scale) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

func TestRowTileMatchesBase(t *testing.T) {
	mains := []string{"dense", "sparse-capable", "sparse-densified"}
	rowTypes := []cplan.RowType{cplan.RowNoAgg, cplan.RowRowAgg, cplan.RowColAgg, cplan.RowFullAgg, cplan.RowColAggT}
	var kinds [numSideKinds]int
	ops := map[cplan.RowOpKind]int{}
	cases := 0
	for _, w := range []int{1, 2, 10, 29, 100} {
		for _, rowT := range rowTypes {
			for mi, mainKind := range mains {
				seed := int64(w*1000 + int(rowT)*10 + mi)
				rng := rand.New(rand.NewSource(seed))
				body := genRowBody(rng, w, rowT, mainKind == "sparse-capable", mainKind == "sparse-densified", &kinds)
				op := cplan.Compile(body.plan, "TMPdiff")
				prog := op.Progs[0]
				for _, in := range prog.Instrs {
					ops[in.Op]++
				}
				if capable := prog.MainSparseCapable(); mainKind != "dense" && capable != (mainKind == "sparse-capable") {
					t.Fatalf("w=%d %v %s: MainSparseCapable = %v", w, rowT, mainKind, capable)
				}
				T, _ := prog.TileSize(w, cplan.MainView)
				for _, rows := range []int{1, T - 1, T, T + 1, 3*T + 5} {
					x := matrix.Rand(rows, w, 1, 0.2, 2, seed+7)
					if mainKind != "dense" {
						x = matrix.Rand(rows, w, 0.3, 0.2, 2, seed+7).ToSparse()
					}
					sides := buildSides(body.sides, rows, seed+100)
					want := refRow(body.plan, x, sides)
					// One worker keeps a chunk longer than a tile, so tiles
					// of exactly T rows and a short last tile both occur;
					// several workers exercise the per-worker partials.
					for _, workers := range []int{1, 4} {
						old := par.SetMaxWorkers(workers)
						got := ExecRowwise(op, x, sides)
						par.SetMaxWorkers(old)
						if i, j, ok := closeTo(got, want); !ok {
							t.Fatalf("w=%d %v %s rows=%d (T=%d) workers=%d: cell (%d,%d) differs\nprogram: %s",
								w, rowT, mainKind, rows, T, workers, i, j, fmt.Sprint(prog.Instrs))
						}
						cases++
					}
				}
			}
		}
	}
	for k, n := range kinds {
		if n == 0 {
			t.Errorf("side kind %d never generated", k)
		}
	}
	for k := cplan.RLoadSideRow; k <= cplan.RCumsumV; k++ {
		if ops[k] == 0 {
			t.Errorf("instruction kind %d never generated", k)
		}
	}
	t.Logf("%d executions compared", cases)
}
