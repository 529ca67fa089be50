package runtime

import (
	"sysml/internal/compress"
	"sysml/internal/cplan"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/vector"
)

// Compressed fused skeleton: when the main input carries an attached
// compressed form (compress.Of), eligible Cell/MAgg/Row operators execute
// directly over the column groups — the dictionary binding: the body runs
// once over each group's dictionary and the results are weighed by the
// tuples' occurrence counts or scattered by row code, turning O(rows)
// genexec work into O(distinct) (paper Fig. 9, Gen-over-CLA). Ineligible
// bodies fall back transparently to the dense skeletons; the executor
// attributes the decision via the compress.exec.hit/fallback counters.

// CompressedConsumer reports whether operator h of an optimized DAG would
// use a compressed form of its input in, were one attached — the question
// the interpreter asks when it plans a block, before anything is sampled: a
// fused operator that runs over the dictionaries of its main input
// (compressedUsable), a basic aggregate served from them
// (compressedAggUsable), or, with a distributed backend (dist), an operator
// that ships in as a broadcast side — the cost model's split, the largest
// input is read where it lies — in which case shipped is true and what the
// compressed form saves is wire bytes.
//
// The Row skeleton needs one dictionary-coded group over every column
// (rowGroupUsable), which co-coding, pairing columns, can only produce for
// a main input of at most two.
func CompressedConsumer(h, in *hop.Hop, dist bool) (ok, shipped bool) {
	if h.ExecType == hop.ExecDist && dist {
		for _, other := range h.Inputs {
			if other.OutputSizeBytes() > in.OutputSizeBytes() {
				return true, true
			}
		}
		return false, false
	}
	switch h.Kind {
	case hop.OpSpoof:
		op, isOp := h.Spoof.(*cplan.Operator)
		if !isOp || h.Inputs[0] != in {
			return false, false
		}
		if eligible, _ := cplan.CompressedEligible(op.Plan); !eligible {
			return false, false
		}
		return op.Plan.Type != cplan.TemplateRow || in.Cols <= 2, false
	case hop.OpAggUnary:
		return compressedAggUsable(h.AggOp, h.AggDir), false
	}
	return false, false
}

// compressedUsable combines the plan-level eligibility probe with the
// invocation-level conditions the skeleton needs (Row requires one
// dictionary-coded group covering every column in order).
func compressedUsable(op *cplan.Operator, cm *compress.CMatrix) bool {
	ok, _ := cplan.CompressedEligible(op.Plan)
	if !ok {
		return false
	}
	if op.Plan.Type == cplan.TemplateRow {
		return rowGroupUsable(cm)
	}
	return true
}

// rowGroupUsable reports whether the compressed matrix is a single
// dictionary-coded group whose columns are exactly 0..C-1 in order — the
// shape under which a whole row IS a dictionary tuple, so the row program
// runs once per distinct tuple.
func rowGroupUsable(cm *compress.CMatrix) bool {
	if len(cm.Groups) != 1 || cm.Groups[0].NumDistinct() == 0 {
		return false
	}
	cols := cm.Groups[0].Cols()
	if len(cols) != cm.Cols {
		return false
	}
	for j, c := range cols {
		if c != j {
			return false
		}
	}
	return true
}

// execCompressed runs the fused operator over the compressed main input.
// ok=false means the invocation is not compressible and the caller must use
// the dense skeleton.
func execCompressed(ec matrix.Ctx, op *cplan.Operator, cm *compress.CMatrix, sides []*matrix.Matrix, stop StopFn) (*matrix.Matrix, bool) {
	if !compressedUsable(op, cm) {
		return nil, false
	}
	switch op.Plan.Type {
	case cplan.TemplateCell:
		return execDict(ec, op.Cells, cm, sides, stop)[0], true
	case cplan.TemplateMAgg:
		return packMAgg(ec, execDict(ec, op.Cells, cm, sides, stop)), true
	case cplan.TemplateRow:
		return execCompressedRow(ec, op, cm, stop), true
	}
	return nil, false
}

// dictSpan, when set (by tests), is told every run of a body over a
// dictionary: the group and the number of cells the program was run over.
var dictSpan func(group, cells int)

// execDict is the dictionary binding of cell bodies: per column group, the
// dictionary (one tuple per row, mapped once per invocation) is the main
// input of every root's program. A NoAgg root's table of results is
// scattered by row code; column and full aggregates weigh each value by the
// occurrence count of its tuple inside the program's own fold.
func execDict(ec matrix.Ctx, roots []*cplan.CellVecProgram, cm *compress.CMatrix, sides []*matrix.Matrix, stop StopFn) []*matrix.Matrix {
	outs := make([]*matrix.Matrix, len(roots))
	for q, r := range roots {
		switch r.Kind {
		case cplan.CellNoAgg:
			outs[q] = ec.NewDenseUninit(cm.Rows, cm.Cols)
		case cplan.CellColAgg:
			outs[q] = ec.NewDenseUninit(1, cm.Cols)
		default:
			outs[q] = matrix.NewScalar(cplan.AggInit(r.Agg))
		}
	}
	// Every leaf is register 0 or a scalar (CompressedEligible): views.
	bind := cplan.NewCells(nil, sides)
	bind.Flat = true
	bufs := make([]*cplan.CellVecBuf, len(roots))
	for q, r := range roots {
		bufs[q] = r.GetBuf()
		defer r.PutBuf(bufs[q])
	}
	var table, part []float64
	for gi, g := range cm.Groups {
		if stop.stopped() {
			break
		}
		cols := g.Cols()
		dict, counts := compress.Dict(g)
		nd, gc := len(counts), len(cols)
		bind.Main = matrix.NewDenseData(nd, gc, dict)
		if gc > 1 { // one weight per value: the tuple's count
			tuples := counts
			counts = make([]float64, nd*gc)
			for k := range counts {
				counts[k] = tuples[k/gc]
			}
		}
		var codes []int32
		for q, r := range roots {
			if dictSpan != nil {
				dictSpan(gi, nd*gc)
			}
			od := outs[q].Dense()
			switch r.Kind {
			case cplan.CellNoAgg:
				if codes == nil {
					codes = compress.Codes(g)
				}
				if cap(table) < nd*gc {
					table = make([]float64, nd*gc)
				}
				r.Exec(bind, bufs[q], 0, nd, table[:nd*gc], nil)
				ec.Par.For(cm.Rows, 512, func(lo, hi int) {
					compress.Scatter(codes, table, gc, od, cm.Cols, cols, lo, hi)
				})
			case cplan.CellColAgg:
				// Each column lies in one group: its partial is the output.
				part = part[:0]
				for range cols {
					part = append(part, cplan.AggInit(r.Agg))
				}
				r.Exec(bind, bufs[q], 0, nd, part, counts)
				for j, c := range cols {
					od[c] = part[j]
				}
			default:
				r.Exec(bind, bufs[q], 0, nd, od, counts)
			}
		}
	}
	return outs
}

// execCompressedRow runs the row program once per distinct dictionary tuple
// (each tuple is a complete main row under rowGroupUsable): the dictionary
// is the tile executor's main input, which yields one result row per
// tuple. The aggregating variants then take the count-weighted sum of that
// table, the per-row variants scatter it by row code.
func execCompressedRow(ec matrix.Ctx, op *cplan.Operator, cm *compress.CMatrix, stop StopFn) *matrix.Matrix {
	prog := op.RowProg
	g := cm.Groups[0]
	w := prog.OutWidth
	dict, counts := compress.Dict(g)
	table := make([]float64, len(counts)*w)
	rowResults(ec, prog, cplan.NewCtx(nil), matrix.NewDenseData(len(counts), cm.Cols, dict), stop, table)

	switch prog.RowT {
	case cplan.RowFullAgg, cplan.RowColAgg:
		out := ec.NewDense(1, w)
		for code, cf := range counts {
			vector.MultAdd(table, cf, out.Dense(), code*w, 0, w)
		}
		if prog.RowT == cplan.RowFullAgg {
			return matrix.NewScalar(vector.Sum(out.Dense(), 0, w))
		}
		return out

	default: // RowRowAgg, RowNoAgg
		out := ec.NewDenseUninit(cm.Rows, w)
		codes := compress.Codes(g)
		ec.Par.For(cm.Rows, 512, func(lo, hi int) {
			compress.Scatter(codes, table, w, out.Dense(), w, nil, lo, hi)
		})
		return out
	}
}

// compressedAgg serves basic (non-fused) full and column aggregates over an
// attached compressed form — the Base-mode analog of the fused path: the
// aggregate of the main input itself is a cell body like any other.
func compressedAgg(ec matrix.Ctx, aop matrix.AggOp, dir matrix.AggDir, m *matrix.Matrix) (*matrix.Matrix, bool) {
	cm := compress.Of(m)
	if cm == nil || !compressedAggUsable(aop, dir) {
		return nil, false
	}
	kind, base, n := cplan.CellFullAgg, aop, float64(cm.Rows)*float64(cm.Cols)
	if dir == matrix.DirCol { // compressedAggUsable admits only All/Col
		kind, n = cplan.CellColAgg, float64(cm.Rows)
	}
	if aop == matrix.AggMean {
		base = matrix.AggSum
	}
	root := cplan.CompileCellVec(cplan.Main(0), kind, base)
	out := execDict(ec, []*cplan.CellVecProgram{root}, cm, nil, nil)[0]
	if aop == matrix.AggMean {
		for j := range out.Dense() {
			out.Dense()[j] /= n
		}
	}
	return out, true
}

// compressedAggUsable reports whether the basic aggregate (aop, dir) can be
// served from dictionaries: full and per-column directions, count-scalable
// functions. Row direction needs per-row evaluation.
func compressedAggUsable(aop matrix.AggOp, dir matrix.AggDir) bool {
	if dir == matrix.DirRow {
		return false
	}
	switch aop {
	case matrix.AggSum, matrix.AggSumSq, matrix.AggMin, matrix.AggMax, matrix.AggMean:
		return true
	}
	return false
}
