package runtime

import (
	"sysml/internal/cplan"
	"sysml/internal/matrix"
	"sysml/internal/vector"
)

// The cell-bound skeleton executes Cell, MAgg, Horizontal and Outer
// operators as one pass over the main input that feeds every root's
// destination — a NoAgg map, row or column aggregates, a full aggregate (a
// Cell or Outer plan has one root, MAgg roots are all full aggregates,
// Horizontal roots mix the kinds, see Plan.HKinds). Every root has one body,
// its register program; what the skeleton decides from the bound inputs is
// the binding, that is, how the program's leaf registers are loaded
// (cplan.Cells): views of a dense main and main-shaped dense sides, filled
// registers for every other input a body can name, or, for a sparse-safe
// operator over a sparse main, the stored cells only, with same-pattern CSR
// outputs for NoAgg roots.

// cellTileCells sizes the row tiles of the pass (in cells): each root's
// program runs once per tile, which has to be long enough that the call is
// not felt by a root that is a single reduction (sum(X*Y): one dot product
// per tile) and short enough that the tile of the main input (64 KiB) and
// of a few main-shaped sides stay in the L2 cache while every sibling root
// consumes them.
const cellTileCells = 8192

// cellGrainCells is the least work, in cells, worth a parallel task.
const cellGrainCells = 4096

// cellState is one worker's state: its binding (side cursors and the
// current span), one set of program registers per root, and one partial per
// folding root (w column partials for ColAgg, one scalar for FullAgg).
type cellState struct {
	bind *cplan.Cells
	bufs []*cplan.CellVecBuf
	acc  [][]float64
}

func execCells(ec matrix.Ctx, op *cplan.Operator, main *matrix.Matrix, sides []*matrix.Matrix, stop StopFn) ([]*matrix.Matrix, Binding) {
	return cellPass(ec, op, cplan.NewCells(main, sides), stop, nil)
}

// cellPass runs the roots of op over the main input of proto. With a sink —
// the matrix products of the Outer template — the values of the one NoAgg
// root are not an output: the sink consumes them a tile of main rows
// [i0, i1) at a time, in visiting order.
func cellPass(ec matrix.Ctx, op *cplan.Operator, proto *cplan.Cells, stop StopFn,
	sink func(vals []float64, i0, i1 int)) ([]*matrix.Matrix, Binding) {
	roots, main := op.Cells, proto.Main
	rows, cols := main.Rows, main.Cols
	bind, perRow := BindFill, cols
	var ms *matrix.CSR
	if proto.Nnz = sparseIter(op, main); proto.Nnz {
		ms = main.Sparse()
		bind, perRow = BindNnz, max(len(ms.Values)/rows, 1)
	} else {
		proto.Flat = true
		for _, r := range roots {
			proto.Flat = proto.Flat && r.Views(proto)
		}
		if proto.Flat {
			bind = BindView
		}
	}

	// Destinations. Every dense output is written in full, so the pool's
	// zeroing pass over recycled storage would be a wasted write. Under
	// non-zero iteration a NoAgg output keeps main's sparsity pattern.
	outs := make([]*matrix.Matrix, len(roots))
	dsts := make([][]float64, len(roots))
	for q, r := range roots {
		switch {
		case r.Kind == cplan.CellNoAgg && sink != nil:
		case r.Kind == cplan.CellNoAgg && proto.Nnz:
			dsts[q] = make([]float64, len(ms.Values))
		case r.Kind == cplan.CellNoAgg:
			outs[q] = ec.NewDenseUninit(rows, cols)
		case r.Kind == cplan.CellRowAgg:
			outs[q] = ec.NewDenseUninit(rows, 1)
		case r.Kind == cplan.CellColAgg:
			outs[q] = ec.NewDenseUninit(1, cols)
		default:
			dsts[q] = make([]float64, 1)
		}
		if outs[q] != nil {
			dsts[q] = outs[q].Dense()
		}
	}

	// A cell of an Outer body costs a rank-r dot product on top of the body.
	tile := max(cellTileCells/perRow, 1)
	grain := max(cellGrainCells/(perRow*(1+proto.Rank/4)), 1)
	nw, _ := ec.Par.Chunks(rows, grain)
	states := make([]*cellState, nw)
	ec.Par.ForIndexed(rows, grain, func(w, lo, hi int) {
		// Per-worker state is lazily initialized and accumulated: a worker
		// id may be handed several chunks by the pool.
		st := states[w]
		if st == nil {
			st = &cellState{bind: proto.Clone(), bufs: make([]*cplan.CellVecBuf, len(roots)), acc: make([][]float64, len(roots))}
			for q, r := range roots {
				st.bufs[q] = r.GetBuf()
				if n := len(foldDst(r.Kind, dsts[q])); n > 0 {
					st.acc[q] = make([]float64, n)
					vector.Fill(st.acc[q], cplan.AggInit(r.Agg), 0, n)
				}
			}
			states[w] = st
		}
		for i0 := lo; i0 < hi; i0 += tile {
			if stop.stopped() { // one poll per tile
				break
			}
			i1 := min(i0+tile, hi)
			for q, r := range roots {
				dst := st.acc[q]
				switch r.Kind {
				case cplan.CellNoAgg:
					base, n := i0*cols, (i1-i0)*cols
					if proto.Nnz {
						base, n = ms.RowPtr[i0], ms.RowPtr[i1]-ms.RowPtr[i0]
					}
					if sink == nil {
						dst = dsts[q][base : base+n]
					} else {
						dst = st.bufs[q].Scratch(n)
					}
				case cplan.CellRowAgg:
					dst = dsts[q][i0:i1]
				}
				if proto.Nnz {
					r.ExecNnz(st.bind, st.bufs[q], i0, i1, dst)
				} else {
					r.Exec(st.bind, st.bufs[q], i0, i1-i0, dst, nil)
				}
				if sink != nil {
					sink(dst, i0, i1)
				}
			}
		}
	})

	// Merge the workers' partials into the folding outputs and wrap up.
	for q, r := range roots {
		if od := foldDst(r.Kind, dsts[q]); od != nil {
			vector.Fill(od, cplan.AggInit(r.Agg), 0, len(od))
			for _, st := range states {
				if st == nil {
					continue
				}
				for j, v := range st.acc[q] {
					od[j] = cplan.AggMerge(r.Agg, od[j], v)
				}
			}
		}
		switch {
		case r.Kind == cplan.CellFullAgg:
			outs[q] = matrix.NewScalar(dsts[q][0])
		case r.Kind == cplan.CellNoAgg && proto.Nnz && sink == nil:
			outs[q] = matrix.NewSparseCSR(rows, cols, &matrix.CSR{
				RowPtr: append([]int(nil), ms.RowPtr...),
				ColIdx: append([]int(nil), ms.ColIdx...),
				Values: dsts[q],
			})
		}
	}
	for _, st := range states {
		if st == nil {
			continue
		}
		for q, b := range st.bufs {
			roots[q].PutBuf(b)
		}
	}
	return outs, bind
}

// foldDst returns the part of a root's destination that workers fold
// partials into (the column or full aggregate), nil for per-cell and
// per-row outputs.
func foldDst(kind cplan.CellType, dst []float64) []float64 {
	if kind == cplan.CellColAgg || kind == cplan.CellFullAgg {
		return dst
	}
	return nil
}
