package runtime

import (
	"sysml/internal/cplan"
	"sysml/internal/matrix"
	"sysml/internal/vector"
)

// The cell-bound skeleton executes Cell, MAgg and Horizontal operators as
// one pass over the main input that feeds every root's destination — a
// NoAgg map, row or column aggregates, a full aggregate (a Cell plan has
// one root, MAgg roots are all full aggregates, Horizontal roots mix the
// kinds, see Plan.HKinds). Each root runs one of two bodies, chosen from
// the bound inputs: its dense program over a dense main with main-shaped
// dense flat sides, a tile of rows at a time, and the per-cell closure
// otherwise. A sparse-safe sparse main is visited non-zero by non-zero, with
// same-pattern CSR outputs for NoAgg roots.

// cellTileCells sizes the row tiles of the pass (in cells): each root's
// program runs once per tile, which has to be long enough that the call is
// not felt by a root that is a single reduction (sum(X*Y): one dot product
// per tile) and short enough that the tile of the main input (64 KiB) and
// of a few main-shaped sides stay in the L2 cache while every sibling root
// consumes them.
const cellTileCells = 8192

// cellGrainCells is the least work, in cells, worth a parallel task.
const cellGrainCells = 4096

// cellState is one worker's state: cloned side cursors, one set of program
// registers per dense root, and one partial per folding root (w column
// partials for ColAgg, one scalar for FullAgg).
type cellState struct {
	ctx  *cplan.Ctx
	bufs []*cplan.CellVecBuf
	acc  [][]float64
	cix  []int // the columns of a whole row, 0..cols-1, for the closure roots
}

func execCells(ec matrix.Ctx, op *cplan.Operator, main *matrix.Matrix, sides []*matrix.Matrix, stop StopFn) ([]*matrix.Matrix, Tier) {
	roots := cellRoots(op)
	rows, cols := main.Rows, main.Cols
	proto := cplan.NewCtx(sides)
	sparse := sparseIter(op.Plan, roots, main)
	tier := TierVec
	for q := range roots {
		if sparse || !roots[q].vec.Usable(main, sides) {
			roots[q].vec, tier = nil, TierCell
		}
	}

	// Destinations. Every dense output is written in full, so the pool's
	// zeroing pass over recycled storage would be a wasted write. Under
	// non-zero iteration a NoAgg output keeps main's sparsity pattern.
	outs := make([]*matrix.Matrix, len(roots))
	dsts := make([][]float64, len(roots))
	var ms *matrix.CSR
	if sparse {
		ms = main.Sparse()
	}
	for q, r := range roots {
		switch {
		case r.kind == cplan.CellNoAgg && sparse:
			dsts[q] = make([]float64, len(ms.Values))
		case r.kind == cplan.CellNoAgg:
			outs[q] = ec.NewDenseUninit(rows, cols)
		case r.kind == cplan.CellRowAgg:
			outs[q] = ec.NewDenseUninit(rows, 1)
		case r.kind == cplan.CellColAgg:
			outs[q] = ec.NewDenseUninit(1, cols)
		default:
			dsts[q] = make([]float64, 1)
		}
		if outs[q] != nil {
			dsts[q] = outs[q].Dense()
		}
	}

	var md []float64
	if !main.IsSparse() {
		md = main.Dense()
	}
	tile := max(cellTileCells/max(cols, 1), 1)
	grain := max(cellGrainCells/max(cols, 1), 1)
	nw, _ := ec.Par.Chunks(rows, grain)
	states := make([]*cellState, nw)
	ec.Par.ForIndexed(rows, grain, func(w, lo, hi int) {
		// Per-worker state is lazily initialized and accumulated: a worker
		// id may be handed several chunks by the pool.
		st := states[w]
		if st == nil {
			st = &cellState{ctx: proto, bufs: make([]*cplan.CellVecBuf, len(roots)), acc: make([][]float64, len(roots))}
			if w > 0 {
				st.ctx = proto.Clone()
			}
			for q, r := range roots {
				if r.vec != nil {
					st.bufs[q] = r.vec.GetBuf()
				}
				if n := len(foldDst(r.kind, dsts[q])); n > 0 {
					st.acc[q] = make([]float64, n)
					vector.Fill(st.acc[q], cplan.AggInit(r.agg), 0, n)
				}
			}
			if tier == TierCell && !sparse {
				st.cix = make([]int, cols)
				for j := range st.cix {
					st.cix[j] = j
				}
			}
			states[w] = st
		}
		var scratch []float64
		if tier == TierCell && !sparse {
			scratch = newRowScratch(ec, main)
			defer releaseRowScratch(ec, scratch)
		}
		for i0 := lo; i0 < hi; i0 += tile {
			if pollStop(stop, i0-lo) {
				break
			}
			i1 := min(i0+tile, hi)
			for q := range roots {
				r := &roots[q]
				if r.vec == nil {
					continue
				}
				dst := st.acc[q]
				switch r.kind {
				case cplan.CellNoAgg:
					dst = dsts[q][i0*cols : i1*cols]
				case cplan.CellRowAgg:
					dst = dsts[q][i0:i1]
				}
				r.vec.Exec(st.ctx, st.bufs[q], md, i0*cols, i1-i0, cols, dst)
			}
			// The closure roots take the tile row by row in turn: the row is
			// fetched once, and their gathers from different sides overlap.
			for i := i0; tier == TierCell && i < i1; i++ {
				vals, cix, base := []float64(nil), st.cix, i*cols
				if sparse {
					vals, cix = ms.Row(i)
					base = ms.RowPtr[i]
				} else {
					row, off := denseRowView(main, i, scratch)
					vals = row[off : off+cols]
				}
				for q := range roots {
					if r := &roots[q]; r.vec == nil {
						r.row(st.ctx, vals, cix, i, base, dsts[q], st.acc[q])
					}
				}
			}
		}
	})

	// Merge the workers' partials into the folding outputs and wrap up.
	for q, r := range roots {
		if od := foldDst(r.kind, dsts[q]); od != nil {
			vector.Fill(od, cplan.AggInit(r.agg), 0, len(od))
			for _, st := range states {
				if st == nil {
					continue
				}
				for j, v := range st.acc[q] {
					od[j] = cplan.AggMerge(r.agg, od[j], v)
				}
			}
		}
		switch {
		case r.kind == cplan.CellFullAgg:
			outs[q] = matrix.NewScalar(dsts[q][0])
		case r.kind == cplan.CellNoAgg && sparse:
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
			if b != nil {
				roots[q].vec.PutBuf(b)
			}
		}
	}
	return outs, tier
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

// row evaluates the root per cell over main row i — the closure body, for
// the access patterns and inputs the dense programs cannot take. The row's
// cells are vals[t] at columns cix[t]: all columns, or the stored values
// under non-zero iteration. A NoAgg root writes cell t to dst[base+t].
func (r *cellRoot) row(ctx *cplan.Ctx, vals []float64, cix []int, i, base int, dst, acc []float64) {
	fn := r.fn
	switch r.kind {
	case cplan.CellNoAgg:
		for t, v := range vals {
			dst[base+t] = fn(ctx, v, i, cix[t])
		}
	case cplan.CellRowAgg:
		a := cplan.AggInit(r.agg)
		for t, v := range vals {
			a = aggStep(r.agg, a, fn(ctx, v, i, cix[t]))
		}
		dst[i] = a
	case cplan.CellColAgg:
		for t, v := range vals {
			acc[cix[t]] = aggStep(r.agg, acc[cix[t]], fn(ctx, v, i, cix[t]))
		}
	default: // CellFullAgg
		a := acc[0]
		if r.agg == matrix.AggSum {
			for t, v := range vals {
				a += fn(ctx, v, i, cix[t])
			}
		} else {
			for t, v := range vals {
				a = aggStep(r.agg, a, fn(ctx, v, i, cix[t]))
			}
		}
		acc[0] = a
	}
}
