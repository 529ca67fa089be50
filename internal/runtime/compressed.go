package runtime

import (
	"sysml/internal/compress"
	"sysml/internal/cplan"
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

// compressedUsable combines the plan-level eligibility the operator was
// compiled with and the invocation-level conditions the skeleton needs (Row
// requires one dictionary-coded group covering every column in order).
func compressedUsable(op *cplan.Operator, cm *compress.CMatrix) bool {
	return op.Compressed && (op.Plan.Type != cplan.TemplateRow || rowGroupUsable(cm))
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
	outs := execDict(ec, op.Progs, cm, sides, stop)
	if op.Plan.Type == cplan.TemplateMAgg {
		return packMAgg(ec, outs), true
	}
	return outs[0], true
}

// dictSpan, when set (by tests), is told every run of a body over a
// dictionary: the group and the number of cells the program was run over.
var dictSpan func(group, cells int)

// execDict is the dictionary binding: per column group, the dictionary (one
// tuple per row, mapped once per invocation) is the main input of the tile
// pass — for a Row program the one group that holds whole rows
// (rowGroupUsable). Result rows a root keeps are a table scattered by row
// code; column and full aggregates weigh each tuple by its occurrence count
// inside the pass's own sinks.
func execDict(ec matrix.Ctx, progs []*cplan.Program, cm *compress.CMatrix, sides []*matrix.Matrix, stop StopFn) []*matrix.Matrix {
	width := 0
	for _, g := range cm.Groups {
		width = max(width, len(g.Cols()))
	}
	// Every leaf is register 0 or a scalar (CompressedEligible): views.
	ps := newPass(ec, false, progs, nil, width, cplan.NewCtx(sides, progs...), stop)
	outs := make([]*matrix.Matrix, len(progs))
	for q, p := range progs {
		switch p.Kind {
		case cplan.CellNoAgg:
			outs[q] = ec.NewDenseUninit(cm.Rows, p.OutCols(cm.Cols))
		case cplan.CellColAgg:
			outs[q], ps.parts[q] = ec.NewDenseUninit(1, p.OutCols(cm.Cols)), p.OutCols(width)
		default:
			outs[q], ps.parts[q] = matrix.NewScalar(cplan.AggInit(p.Agg)), 1
		}
	}
	st := ps.newWorker()
	defer ps.release(st)
	var table []float64
	for gi, g := range cm.Groups {
		if stop.stopped() {
			break
		}
		cols := g.Cols()
		dict, counts := compress.Dict(g)
		nd := len(counts)
		ps.cols, ps.wts = len(cols), counts
		var codes []int32
		for q, p := range progs {
			if dictSpan != nil {
				dictSpan(gi, nd*len(cols))
			}
			b, ow, od := st.bufs[q], p.OutCols(len(cols)), outs[q].Dense()
			b.Dense, b.Cols = dict, len(cols)
			if p.Kind == cplan.CellNoAgg {
				if cap(table) < nd*ow {
					table = make([]float64, nd*ow)
				}
				ps.dsts[q] = table[:nd*ow]
			} else {
				vector.Fill(st.acc[q], cplan.AggInit(p.Agg), 0, len(st.acc[q]))
			}
			ps.runRoot(st, q, 0, nd)
			switch {
			case p.Kind == cplan.CellNoAgg:
				if codes == nil {
					codes = compress.Codes(g)
				}
				into := cols // a cell body's columns are the group's
				if p.OutWidth > 0 {
					into = nil
				}
				ec.Par.For(cm.Rows, 512, func(lo, hi int) {
					compress.Scatter(codes, table, ow, od, p.OutCols(cm.Cols), into, lo, hi)
				})
			case p.Kind == cplan.CellColAgg && p.OutWidth > 0:
				copy(od, st.acc[q])
			case p.Kind == cplan.CellColAgg:
				// Each column lies in one group: its partial is the output.
				for j, c := range cols {
					od[c] = st.acc[q][j]
				}
			default:
				od[0] = cplan.AggMerge(p.Agg, od[0], st.acc[q][0])
			}
		}
	}
	return outs
}

// aggProgs are the bodies of the basic aggregates served from dictionaries:
// the aggregate of the main input itself is a cell body like any other.
var aggProgs = func() map[[2]int]*cplan.Program {
	progs := map[[2]int]*cplan.Program{}
	for _, kind := range []cplan.CellType{cplan.CellFullAgg, cplan.CellColAgg} {
		for _, agg := range []matrix.AggOp{matrix.AggSum, matrix.AggSumSq, matrix.AggMin, matrix.AggMax} {
			progs[[2]int{int(kind), int(agg)}] = cplan.CompileCell(cplan.Main(0), kind, agg)
		}
	}
	return progs
}()

// compressedAgg serves basic (non-fused) full and column aggregates over an
// attached compressed form — the Base-mode analog of the fused path.
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
	out := execDict(ec, []*cplan.Program{aggProgs[[2]int{int(kind), int(base)}]}, cm, nil, nil)[0]
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
