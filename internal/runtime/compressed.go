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
// directly over the column groups — the CPlan body is evaluated once per
// distinct dictionary tuple and the result scaled by the tuple's occurrence
// count, turning O(rows) genexec work into O(distinct) (paper Fig. 9,
// Gen-over-CLA). Ineligible bodies fall back transparently to the dense
// skeletons; the executor attributes the decision via the
// compress.exec.hit/fallback counters.

// CompressedDispatched mirrors the skeleton dispatch decision exactly: it
// reports whether this invocation of the fused operator runs over the
// compressed form of its main input. The executor uses it for counter
// attribution without instrumenting the hot loops.
func CompressedDispatched(op *cplan.Operator, ins []*matrix.Matrix) bool {
	if len(ins) == 0 {
		return false
	}
	cm := compress.Of(ins[0])
	return cm != nil && compressedUsable(op, cm)
}

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
		return execCompressedCell(ec, op, cm, sides, stop), true
	case cplan.TemplateMAgg:
		return execCompressedMAgg(ec, op, cm, sides, stop), true
	case cplan.TemplateRow:
		return execCompressedRow(ec, op, cm, stop), true
	}
	return nil, false
}

// aggStepCount folds one per-distinct result r occurring count times into
// the accumulator. Sum-style aggregates scale by the count; min/max ignore
// it (counts are always >= 1).
func aggStepCount(op matrix.AggOp, acc, r float64, count int) float64 {
	switch op {
	case matrix.AggMin, matrix.AggMax:
		return aggStep(op, acc, r)
	case matrix.AggSumSq:
		return acc + r*r*float64(count)
	}
	return acc + r*float64(count)
}

func execCompressedCell(ec matrix.Ctx, op *cplan.Operator, cm *compress.CMatrix, sides []*matrix.Matrix, stop StopFn) *matrix.Matrix {
	p := op.Plan
	fn := op.CellFn
	ctx := cplan.NewCtx(sides)

	switch p.Cell {
	case cplan.CellFullAgg:
		acc := cplan.AggInit(p.AggOp)
		for gi, g := range cm.Groups {
			if pollStop(stop, gi) {
				break
			}
			cols := g.Cols()
			g.ForEachDistinct(func(vals []float64, count int) {
				for j, v := range vals {
					acc = aggStepCount(p.AggOp, acc, fn(ctx, v, 0, cols[j]), count)
				}
			})
		}
		return matrix.NewScalar(acc)

	case cplan.CellColAgg:
		out := ec.NewDenseUninit(1, cm.Cols)
		od := out.Dense()
		for j := range od {
			od[j] = cplan.AggInit(p.AggOp)
		}
		for gi, g := range cm.Groups {
			if pollStop(stop, gi) {
				break
			}
			cols := g.Cols()
			g.ForEachDistinct(func(vals []float64, count int) {
				for j, v := range vals {
					c := cols[j]
					od[c] = aggStepCount(p.AggOp, od[c], fn(ctx, v, 0, c), count)
				}
			})
		}
		return out

	default: // CellNoAgg: map each group's dictionary once, scatter by row.
		out := ec.NewDenseUninit(cm.Rows, cm.Cols)
		od := out.Dense()
		for _, g := range cm.Groups {
			g := g
			ec.Par.For(cm.Rows, 512, func(lo, hi int) {
				if stop != nil && stop() {
					return
				}
				wctx := ctx.Clone()
				compress.MapInto(g, od, cm.Cols, lo, hi, func(v float64, c int) float64 {
					return fn(wctx, v, 0, c)
				})
			})
		}
		return out
	}
}

func execCompressedMAgg(ec matrix.Ctx, op *cplan.Operator, cm *compress.CMatrix, sides []*matrix.Matrix, stop StopFn) *matrix.Matrix {
	p := op.Plan
	k := len(op.MAggFns)
	ctx := cplan.NewCtx(sides)
	out := ec.NewDenseUninit(1, k)
	od := out.Dense()
	for q := 0; q < k; q++ {
		od[q] = cplan.AggInit(p.AggOps[q])
	}
	for gi, g := range cm.Groups {
		if pollStop(stop, gi) {
			break
		}
		cols := g.Cols()
		g.ForEachDistinct(func(vals []float64, count int) {
			for j, v := range vals {
				c := cols[j]
				for q := 0; q < k; q++ {
					od[q] = aggStepCount(p.AggOps[q], od[q], op.MAggFns[q](ctx, v, 0, c), count)
				}
			}
		})
	}
	return out
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
	nd := g.NumDistinct()

	// Dictionary tuples in code order (the order ForEachDistinct visits
	// them, matching compress.Codes) and their occurrence counts.
	dict := make([]float64, nd*cm.Cols)
	counts := make([]float64, 0, nd)
	g.ForEachDistinct(func(tuple []float64, count int) {
		copy(dict[len(counts)*cm.Cols:], tuple)
		counts = append(counts, float64(count))
	})
	table := make([]float64, nd*w)
	rowResults(ec, prog, cplan.NewCtx(nil), matrix.NewDenseData(nd, cm.Cols, dict), stop, table)

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
		od := out.Dense()
		codes := compress.Codes(g)
		ec.Par.For(cm.Rows, 512, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				copy(od[r*w:(r+1)*w], table[int(codes[r])*w:])
			}
		})
		return out
	}
}

// compressedAgg serves basic (non-fused) full and column aggregates over an
// attached compressed form — the Base-mode analog of the fused path.
func compressedAgg(ec matrix.Ctx, aop matrix.AggOp, dir matrix.AggDir, m *matrix.Matrix) (*matrix.Matrix, bool) {
	cm := compress.Of(m)
	if cm == nil || !compressedAggUsable(aop, dir) {
		return nil, false
	}
	cells := float64(cm.Rows) * float64(cm.Cols)
	base := aop
	if base == matrix.AggMean {
		base = matrix.AggSum
	}
	switch dir {
	case matrix.DirAll:
		acc := cplan.AggInit(base)
		for _, g := range cm.Groups {
			g.ForEachDistinct(func(vals []float64, count int) {
				for _, v := range vals {
					acc = aggStepCount(base, acc, v, count)
				}
			})
		}
		if aop == matrix.AggMean {
			acc /= cells
		}
		return matrix.NewScalar(acc), true
	default: // DirCol (compressedAggUsable admits only All/Col)
		out := ec.NewDenseUninit(1, cm.Cols)
		od := out.Dense()
		for j := range od {
			od[j] = cplan.AggInit(base)
		}
		for _, g := range cm.Groups {
			cols := g.Cols()
			g.ForEachDistinct(func(vals []float64, count int) {
				for j, v := range vals {
					od[cols[j]] = aggStepCount(base, od[cols[j]], v, count)
				}
			})
		}
		if aop == matrix.AggMean {
			for j := range od {
				od[j] /= float64(cm.Rows)
			}
		}
		return out, true
	}
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
