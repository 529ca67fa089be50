// Package runtime executes HOP DAGs: basic operators via the matrix
// kernels, and generated fused operators via the four hand-coded template
// skeletons (SpoofCellwise, SpoofRowwise, SpoofMultiAggregate,
// SpoofOuterProduct). The skeletons own data access (dense, sparse,
// compressed), multi-threading, and aggregation; generated operators only
// supply the genexec body (paper §2.2, Fig. 4).
package runtime

import (
	"math"

	"sysml/internal/cplan"
	"sysml/internal/matrix"
)

// ExecCellwise runs a compiled Cell-template operator over the main input.
func ExecCellwise(op *cplan.Operator, main *matrix.Matrix, sides []*matrix.Matrix) *matrix.Matrix {
	return execCellwise(matrix.Ctx{}, op, main, sides, nil)
}

func execCellwise(ec matrix.Ctx, op *cplan.Operator, main *matrix.Matrix, sides []*matrix.Matrix, stop StopFn) *matrix.Matrix {
	p := op.Plan
	fn := op.CellFn
	rows, cols := main.Rows, main.Cols
	proto := cplan.NewCtx(sides)
	sparseIter := p.SparseSafe && main.IsSparse() && (p.Cell == cplan.CellNoAgg || aggIsSum(p.AggOp))

	switch p.Cell {
	case cplan.CellNoAgg:
		if sparseIter {
			// Sparse-safe: compute only for non-zero cells; the output
			// keeps the main input's sparsity pattern.
			ms := main.Sparse()
			out := &matrix.CSR{
				RowPtr: append([]int(nil), ms.RowPtr...),
				ColIdx: append([]int(nil), ms.ColIdx...),
				Values: make([]float64, len(ms.Values)),
			}
			ec.Par.For(rows, 64, func(lo, hi int) {
				ctx := proto.Clone()
				for i := lo; i < hi; i++ {
					if pollStop(stop, i-lo) {
						return
					}
					vals, cix := ms.Row(i)
					base := ms.RowPtr[i]
					for k := range cix {
						out.Values[base+k] = fn(ctx, vals[k], i, cix[k])
					}
				}
			})
			return matrix.NewSparseCSR(rows, cols, out)
		}
		// Every dense path below writes every cell, so the pool's zeroing
		// pass over recycled storage would be a wasted full write.
		out := ec.NewDenseUninit(rows, cols)
		od := out.Dense()
		if chunkUsable(op.Chunk, main, sides) && op.Chunk.Kind == cplan.ChunkMap {
			// Specialized chunk program: the fingerprint-selected AOT loop
			// writes the output buffer directly (no result-chunk copy).
			md := main.Dense()
			total := rows * cols
			ec.Par.For((total+cplan.ChunkLen-1)/cplan.ChunkLen, 8, func(clo, chi int) {
				ctx := proto.Clone()
				for ci := clo; ci < chi; ci++ {
					if stop != nil && stop() {
						return
					}
					lo := ci * cplan.ChunkLen
					n := cplan.ChunkLen
					if lo+n > total {
						n = total - lo
					}
					op.Chunk.Map(ctx, md, od, lo, lo, n)
				}
			})
			return out
		}
		if op.VecProg.ChunkCompatible(main, sides) {
			// Vectorized genexec: evaluate the plan chunk-wise with the
			// shared vector primitives (the JIT-compiled-code analog).
			md := main.Dense()
			total := rows * cols
			ec.Par.For((total+cplan.ChunkLen-1)/cplan.ChunkLen, 8, func(clo, chi int) {
				ctx := proto.Clone()
				buf := op.VecProg.GetBuf()
				defer op.VecProg.PutBuf(buf)
				for ci := clo; ci < chi; ci++ {
					if stop != nil && stop() {
						return
					}
					lo := ci * cplan.ChunkLen
					n := cplan.ChunkLen
					if lo+n > total {
						n = total - lo
					}
					res, ro := op.VecProg.Exec(ctx, buf, md, lo, n)
					copy(od[lo:lo+n], res[ro:ro+n])
				}
			})
			return out
		}
		ec.Par.For(rows, 64, func(lo, hi int) {
			ctx := proto.Clone()
			scratch := newRowScratch(ec, main)
			defer releaseRowScratch(ec, scratch)
			for i := lo; i < hi; i++ {
				if pollStop(stop, i-lo) {
					return
				}
				row, off := denseRowView(main, i, scratch)
				base := i * cols
				for j := 0; j < cols; j++ {
					od[base+j] = fn(ctx, row[off+j], i, j)
				}
			}
		})
		return out

	case cplan.CellRowAgg:
		out := ec.NewDense(rows, 1)
		od := out.Dense()
		if chunkUsable(op.Chunk, main, sides) && op.Chunk.Kind == cplan.ChunkAgg {
			// Closed-form per-row aggregate over the dense row slice.
			md := main.Dense()
			ec.Par.For(rows, 64, func(lo, hi int) {
				ctx := proto.Clone()
				for i := lo; i < hi; i++ {
					if pollStop(stop, i-lo) {
						return
					}
					od[i] = op.Chunk.Agg(ctx, md, i*cols, cols)
				}
			})
			return out
		}
		ec.Par.For(rows, 64, func(lo, hi int) {
			ctx := proto.Clone()
			scratch := newRowScratch(ec, main)
			defer releaseRowScratch(ec, scratch)
			for i := lo; i < hi; i++ {
				if pollStop(stop, i-lo) {
					return
				}
				acc := aggInit(p.AggOp)
				if sparseIter {
					vals, cix := main.Sparse().Row(i)
					for k := range cix {
						acc = aggStep(p.AggOp, acc, fn(ctx, vals[k], i, cix[k]))
					}
				} else {
					row, off := denseRowView(main, i, scratch)
					for j := 0; j < cols; j++ {
						acc = aggStep(p.AggOp, acc, fn(ctx, row[off+j], i, j))
					}
				}
				od[i] = acc
			}
		})
		return out

	case cplan.CellColAgg:
		if chunkUsable(op.Chunk, main, sides) && op.Chunk.Kind == cplan.ChunkColAgg {
			// colsums specialization: per-worker column partials accumulated
			// row-by-row with the vector kernels (AggSum only, so the
			// zero-initialized partials reduce by addition).
			md := main.Dense()
			nw, _ := ec.Par.Chunks(rows, 64)
			partials := make([][]float64, nw)
			ec.Par.ForIndexed(rows, 64, func(w, lo, hi int) {
				ctx := proto.Clone()
				part := partials[w]
				if part == nil {
					part = make([]float64, cols)
					partials[w] = part
				}
				for i := lo; i < hi; i++ {
					if pollStop(stop, i-lo) {
						break
					}
					op.Chunk.Col(ctx, md, i*cols, part, cols)
				}
			})
			out := ec.NewDense(1, cols)
			od := out.Dense()
			for _, part := range partials {
				if part == nil {
					continue
				}
				for j := 0; j < cols; j++ {
					od[j] += part[j]
				}
			}
			return out
		}
		nw, _ := ec.Par.Chunks(rows, 64)
		partials := make([][]float64, nw)
		ec.Par.ForIndexed(rows, 64, func(w, lo, hi int) {
			ctx := proto.Clone()
			scratch := newRowScratch(ec, main)
			defer releaseRowScratch(ec, scratch)
			// Per-worker state is lazily initialized and accumulated: a
			// worker id may be handed several chunks by the pool.
			part := partials[w]
			if part == nil {
				part = make([]float64, cols)
				for j := range part {
					part[j] = aggInit(p.AggOp)
				}
				partials[w] = part
			}
			for i := lo; i < hi; i++ {
				if pollStop(stop, i-lo) {
					break
				}
				if sparseIter {
					vals, cix := main.Sparse().Row(i)
					for k := range cix {
						j := cix[k]
						part[j] = aggStep(p.AggOp, part[j], fn(ctx, vals[k], i, j))
					}
				} else {
					row, off := denseRowView(main, i, scratch)
					for j := 0; j < cols; j++ {
						part[j] = aggStep(p.AggOp, part[j], fn(ctx, row[off+j], i, j))
					}
				}
			}
		})
		out := ec.NewDense(1, cols)
		od := out.Dense()
		for j := 0; j < cols; j++ {
			od[j] = aggInit(p.AggOp)
		}
		for _, part := range partials {
			if part == nil {
				continue
			}
			for j := 0; j < cols; j++ {
				od[j] = aggMerge(p.AggOp, od[j], part[j])
			}
		}
		return out

	default: // CellFullAgg
		if chunkUsable(op.Chunk, main, sides) && op.Chunk.Kind == cplan.ChunkAgg {
			// Closed-form full aggregate: per-worker scalar partials from the
			// chunk program (sum-style by construction, so they add).
			md := main.Dense()
			total := rows * cols
			nc := (total + cplan.ChunkLen - 1) / cplan.ChunkLen
			nwc, _ := ec.Par.Chunks(nc, 8)
			parts := make([]float64, nwc)
			ec.Par.ForIndexed(nc, 8, func(w, clo, chi int) {
				ctx := proto.Clone()
				var acc float64
				for ci := clo; ci < chi; ci++ {
					if stop != nil && stop() {
						break
					}
					lo := ci * cplan.ChunkLen
					n := cplan.ChunkLen
					if lo+n > total {
						n = total - lo
					}
					acc += op.Chunk.Agg(ctx, md, lo, n)
				}
				parts[w] += acc
			})
			var acc float64
			for _, v := range parts {
				acc += v
			}
			return matrix.NewScalar(acc)
		}
		nw, _ := ec.Par.Chunks(rows, 64)
		partials := make([]float64, nw)
		for i := range partials {
			partials[i] = aggInit(p.AggOp)
		}
		sum := aggIsSum(p.AggOp) && p.AggOp != matrix.AggSumSq
		if sum && op.VecProg.ChunkCompatible(main, sides) {
			md := main.Dense()
			total := rows * cols
			nc := (total + cplan.ChunkLen - 1) / cplan.ChunkLen
			nw2, _ := ec.Par.Chunks(nc, 8)
			part2 := make([]float64, nw2)
			ec.Par.ForIndexed(nc, 8, func(w, clo, chi int) {
				ctx := proto.Clone()
				buf := op.VecProg.GetBuf()
				defer op.VecProg.PutBuf(buf)
				var acc float64
				for ci := clo; ci < chi; ci++ {
					if stop != nil && stop() {
						break
					}
					lo := ci * cplan.ChunkLen
					n := cplan.ChunkLen
					if lo+n > total {
						n = total - lo
					}
					res, ro := op.VecProg.Exec(ctx, buf, md, lo, n)
					acc += cplan.SumChunk(res, ro, n)
				}
				part2[w] += acc
			})
			var acc float64
			for _, v := range part2 {
				acc += v
			}
			return matrix.NewScalar(acc)
		}
		ec.Par.ForIndexed(rows, 64, func(w, lo, hi int) {
			ctx := proto.Clone()
			scratch := newRowScratch(ec, main)
			defer releaseRowScratch(ec, scratch)
			acc := partials[w] // resume this worker's accumulator
			for i := lo; i < hi; i++ {
				if pollStop(stop, i-lo) {
					break
				}
				switch {
				case sparseIter:
					vals, cix := main.Sparse().Row(i)
					if sum {
						for k := range cix {
							acc += fn(ctx, vals[k], i, cix[k])
						}
					} else {
						for k := range cix {
							acc = aggStep(p.AggOp, acc, fn(ctx, vals[k], i, cix[k]))
						}
					}
				case sum:
					row, off := denseRowView(main, i, scratch)
					for j := 0; j < cols; j++ {
						acc += fn(ctx, row[off+j], i, j)
					}
				default:
					row, off := denseRowView(main, i, scratch)
					for j := 0; j < cols; j++ {
						acc = aggStep(p.AggOp, acc, fn(ctx, row[off+j], i, j))
					}
				}
			}
			partials[w] = acc
		})
		acc := aggInit(p.AggOp)
		for _, v := range partials {
			acc = aggMerge(p.AggOp, acc, v)
		}
		return matrix.NewScalar(acc)
	}
}

// ExecMAgg runs a compiled multi-aggregate operator, producing a 1×k row
// of aggregate values in one pass over the shared main input.
func ExecMAgg(op *cplan.Operator, main *matrix.Matrix, sides []*matrix.Matrix) *matrix.Matrix {
	return execMAgg(matrix.Ctx{}, op, main, sides, nil)
}

func execMAgg(ec matrix.Ctx, op *cplan.Operator, main *matrix.Matrix, sides []*matrix.Matrix, stop StopFn) *matrix.Matrix {
	p := op.Plan
	k := len(op.MAggFns)
	proto := cplan.NewCtx(sides)
	rows, cols := main.Rows, main.Cols
	sparseIter := p.SparseSafe && main.IsSparse()
	// Specialized multi-aggregate: when every root carries a usable chunk
	// program, each chunk of X is reduced by the closed-form bodies while
	// cache-resident. Mixed chunk/vec dispatch per root is the Horizontal
	// skeleton's job; here a single non-matching root falls back whole.
	chunkOK := !sparseIter && k > 0
	for q := 0; q < k && chunkOK; q++ {
		chunkOK = chunkUsable(op.MAggChunks[q], main, sides) && op.MAggChunks[q].Kind == cplan.ChunkAgg
	}
	if chunkOK {
		md := main.Dense()
		total := rows * cols
		nc := (total + cplan.ChunkLen - 1) / cplan.ChunkLen
		nw, _ := ec.Par.Chunks(nc, 8)
		partials := make([][]float64, nw)
		ec.Par.ForIndexed(nc, 8, func(w, clo, chi int) {
			ctx := proto.Clone()
			part := partials[w]
			if part == nil {
				part = make([]float64, k)
				partials[w] = part
			}
			for ci := clo; ci < chi; ci++ {
				if stop != nil && stop() {
					break
				}
				lo := ci * cplan.ChunkLen
				n := cplan.ChunkLen
				if lo+n > total {
					n = total - lo
				}
				for q := 0; q < k; q++ {
					part[q] += op.MAggChunks[q].Agg(ctx, md, lo, n)
				}
			}
		})
		out := ec.NewDense(1, k)
		od := out.Dense()
		for _, part := range partials {
			if part == nil {
				continue
			}
			for q := 0; q < k; q++ {
				od[q] += part[q]
			}
		}
		return out
	}
	// Vectorized multi-aggregate: all programs chunk over the shared main
	// input, so X is read once per chunk while it is cache-resident.
	vecOK := !sparseIter
	for q := 0; q < k && vecOK; q++ {
		vecOK = op.MAggVecs[q].ChunkCompatible(main, sides) &&
			(p.AggOps[q] == matrix.AggSum || p.AggOps[q] == matrix.AggSumSq)
	}
	if vecOK && k > 0 {
		md := main.Dense()
		total := rows * cols
		nc := (total + cplan.ChunkLen - 1) / cplan.ChunkLen
		nw, _ := ec.Par.Chunks(nc, 8)
		partials := make([][]float64, nw)
		ec.Par.ForIndexed(nc, 8, func(w, clo, chi int) {
			ctx := proto.Clone()
			bufs := make([]*cplan.CellVecBuf, k)
			for q := range bufs {
				bufs[q] = op.MAggVecs[q].GetBuf()
				defer op.MAggVecs[q].PutBuf(bufs[q])
			}
			part := partials[w] // lazily initialized, accumulated across chunks
			if part == nil {
				part = make([]float64, k)
				partials[w] = part
			}
			for ci := clo; ci < chi; ci++ {
				if stop != nil && stop() {
					break
				}
				lo := ci * cplan.ChunkLen
				n := cplan.ChunkLen
				if lo+n > total {
					n = total - lo
				}
				for q := 0; q < k; q++ {
					res, ro := op.MAggVecs[q].Exec(ctx, bufs[q], md, lo, n)
					if p.AggOps[q] == matrix.AggSumSq {
						for t := 0; t < n; t++ {
							part[q] += res[ro+t] * res[ro+t]
						}
					} else {
						part[q] += cplan.SumChunk(res, ro, n)
					}
				}
			}
		})
		out := ec.NewDense(1, k)
		od := out.Dense()
		for _, part := range partials {
			if part != nil {
				for q := 0; q < k; q++ {
					od[q] += part[q]
				}
			}
		}
		return out
	}
	nw, _ := ec.Par.Chunks(rows, 64)
	partials := make([][]float64, nw)
	ec.Par.ForIndexed(rows, 64, func(w, lo, hi int) {
		ctx := proto.Clone()
		scratch := newRowScratch(ec, main)
		defer releaseRowScratch(ec, scratch)
		part := partials[w] // lazily initialized, accumulated across chunks
		if part == nil {
			part = make([]float64, k)
			for q := 0; q < k; q++ {
				part[q] = aggInit(p.AggOps[q])
			}
			partials[w] = part
		}
		for i := lo; i < hi; i++ {
			if pollStop(stop, i-lo) {
				break
			}
			if sparseIter {
				vals, cix := main.Sparse().Row(i)
				for kk := range cix {
					for q := 0; q < k; q++ {
						part[q] = aggStep(p.AggOps[q], part[q], op.MAggFns[q](ctx, vals[kk], i, cix[kk]))
					}
				}
			} else {
				row, off := denseRowView(main, i, scratch)
				for j := 0; j < cols; j++ {
					for q := 0; q < k; q++ {
						part[q] = aggStep(p.AggOps[q], part[q], op.MAggFns[q](ctx, row[off+j], i, j))
					}
				}
			}
		}
	})
	out := ec.NewDense(1, k)
	od := out.Dense()
	for q := 0; q < k; q++ {
		od[q] = aggInit(p.AggOps[q])
	}
	for _, part := range partials {
		if part == nil {
			continue
		}
		for q := 0; q < k; q++ {
			od[q] = aggMerge(p.AggOps[q], od[q], part[q])
		}
	}
	return out
}

// ChunkDispatched reports whether an invocation of the fused operator over
// these inputs runs (at least one root) on a specialized chunk program. It
// mirrors the skeleton dispatch decisions exactly; the executor uses it to
// attribute spoof.chunk.hit/miss runtime counters without instrumenting
// the hot loops.
func ChunkDispatched(op *cplan.Operator, ins []*matrix.Matrix) bool {
	if len(ins) == 0 {
		return false
	}
	main, sides := ins[0], ins[1:]
	p := op.Plan
	switch p.Type {
	case cplan.TemplateCell:
		return chunkUsable(op.Chunk, main, sides)
	case cplan.TemplateMAgg:
		if p.SparseSafe && main.IsSparse() {
			return false
		}
		for _, c := range op.MAggChunks {
			if !chunkUsable(c, main, sides) {
				return false // execMAgg dispatches all-or-nothing
			}
		}
		return len(op.MAggChunks) > 0
	case cplan.TemplateHorizontal:
		if horizontalSparseIter(p, main) {
			return false
		}
		if op.HFused != nil && !main.IsSparse() {
			return true // whole-group fused body dispatches
		}
		for _, c := range op.MAggChunks {
			if chunkUsable(c, main, sides) {
				return true // per-root dispatch: any root counts
			}
		}
		return false
	}
	return false
}

// workCellwise measures the data-touch work of one Cell invocation: the
// cells the skeleton visits (stored entries under sparse-safe non-zero
// iteration, all cells otherwise) times the covered operations evaluated
// per cell. Mirrors execCellwise's iteration decision; feeds the
// cost-audit ledger's "actual FLOPs".
func workCellwise(op *cplan.Operator, main *matrix.Matrix) float64 {
	p := op.Plan
	visited := float64(main.Rows) * float64(main.Cols)
	if p.SparseSafe && main.IsSparse() && (p.Cell == cplan.CellNoAgg || aggIsSum(p.AggOp)) {
		visited = storedCells(main)
	}
	return visited * float64(p.NumNodes())
}

// workMAgg is workCellwise for the multi-aggregate skeleton: one pass over
// the shared main input evaluating every aggregate's expression per cell.
func workMAgg(op *cplan.Operator, main *matrix.Matrix) float64 {
	p := op.Plan
	visited := float64(main.Rows) * float64(main.Cols)
	if p.SparseSafe && main.IsSparse() {
		visited = storedCells(main)
	}
	return visited * float64(p.NumNodes())
}

func aggIsSum(op matrix.AggOp) bool {
	return op == matrix.AggSum || op == matrix.AggSumSq
}

func aggInit(op matrix.AggOp) float64 {
	switch op {
	case matrix.AggMin:
		return math.Inf(1)
	case matrix.AggMax:
		return math.Inf(-1)
	}
	return 0
}

func aggStep(op matrix.AggOp, acc, v float64) float64 {
	switch op {
	case matrix.AggMin:
		return math.Min(acc, v)
	case matrix.AggMax:
		return math.Max(acc, v)
	case matrix.AggSumSq:
		return acc + v*v
	}
	return acc + v
}

// aggMerge folds one worker's partial into the final accumulator. Unlike
// aggStep, the partial is already aggregated, so sum-of-squares partials
// add — squaring again would be wrong.
func aggMerge(op matrix.AggOp, acc, partial float64) float64 {
	switch op {
	case matrix.AggMin, matrix.AggMax:
		return aggStep(op, acc, partial)
	}
	return acc + partial
}

// newRowScratch returns a densification scratch row for sparse main inputs
// (nil for dense ones), drawn from the matrix buffer pool. Callers release
// it with releaseRowScratch when the worker closure finishes.
func newRowScratch(ec matrix.Ctx, m *matrix.Matrix) []float64 {
	if m.IsSparse() {
		return ec.GetBuf(m.Cols)
	}
	return nil
}

func releaseRowScratch(ec matrix.Ctx, s []float64) {
	if s != nil {
		ec.PutBuf(s)
	}
}

func denseRowView(m *matrix.Matrix, i int, scratch []float64) ([]float64, int) {
	if !m.IsSparse() {
		return m.Dense(), i * m.Cols
	}
	for j := range scratch {
		scratch[j] = 0
	}
	vals, cix := m.Sparse().Row(i)
	for k, j := range cix {
		scratch[j] = vals[k]
	}
	return scratch, 0
}
