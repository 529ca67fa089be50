package runtime

import (
	"sysml/internal/cplan"
	"sysml/internal/matrix"
	"sysml/internal/vector"
)

// The tile pass is the one skeleton loop behind every template: the main
// input streams through the programs of an operator's roots a tile of rows
// at a time, in parallel over row chunks, and a sink per root takes the
// result rows of each tile —
//
//	rows      NoAgg: kept (written in place where the program can)
//	rowAgg    RowAgg: each folded into one value
//	colAgg    ColAgg: folded into per-worker column partials (sum, min, max;
//	          a sum weighed by the occurrence count of each row under the
//	          dictionary binding), or with T into t(main tile) %*% result
//	fullAgg   FullAgg: folded into one per-worker partial
//	products  Outer: f(X, UV') %*% V row by row, t(f(X, UV')) %*% U into
//	          per-worker partials
//
// A Cell, Row or Outer operator has one root, MAgg roots are all full
// aggregates, Horizontal roots mix the kinds (Plan.HKinds); every root finds
// the tile its siblings just read in the cache. What the pass decides from
// the bound inputs is how register 0 is loaded (cplan.BindMain); a root over
// the stored cells of a sparse main keeps main's pattern in a NoAgg output.

// grainCells is the least work, in cells of main, worth a parallel task.
const grainCells = 4096

// pass is one run of the roots of an operator over a main input.
type pass struct {
	ec    matrix.Ctx
	progs []*cplan.Program
	binds []cplan.MainBinding
	main  *matrix.Matrix
	ctx   *cplan.Ctx // sides and Outer factors; cloned per worker
	stop  StopFn

	cols  int         // of main: the width a cell body's registers take
	dsts  [][]float64 // per root: where kept rows and row aggregates go
	parts []int       // per root: the length of its fold partial, 0 for none
	wts   []float64   // dictionary binding: how many rows of the matrix each main row stands for
	// product, the sink of an Outer matrix product, takes the values of the
	// root's body at the cells of b's tile: row t at w[o+t*s:].
	product func(st *worker, b *cplan.Buf, w []float64, o, s int)
}

// worker is one worker's state: side cursors, one set of registers per root,
// one partial per folding root, and scratch for the sinks.
type worker struct {
	ctx  *cplan.Ctx
	bufs []*cplan.Buf
	caps [][2]int // per root: rows and columns of its steps
	acc  [][]float64
	tmp  []float64
}

// newPass binds the roots of an operator to main (nil: set per group by the
// dictionary binding, which views cols-wide dictionaries) and sizes the tile.
func newPass(ec matrix.Ctx, sparseSafe bool, progs []*cplan.Program, main *matrix.Matrix, cols int,
	ctx *cplan.Ctx, stop StopFn) *pass {
	ps := &pass{ec: ec, progs: progs, main: main, ctx: ctx, stop: stop, cols: cols,
		dsts: make([][]float64, len(progs)), parts: make([]int, len(progs))}
	if main == nil {
		ps.binds = make([]cplan.MainBinding, len(progs))
	} else {
		ps.binds = cplan.BindMain(sparseSafe, progs, main)
	}
	return ps
}

// newWorker allocates a worker's registers, sized by each program's layout,
// and its partials.
func (ps *pass) newWorker() *worker {
	st := &worker{ctx: ps.ctx.Clone(), bufs: make([]*cplan.Buf, len(ps.progs)),
		caps: make([][2]int, len(ps.progs)), acc: make([][]float64, len(ps.progs))}
	for q, p := range ps.progs {
		rows, cols := p.TileSize(ps.cols, ps.binds[q])
		st.caps[q] = [2]int{rows, cols}
		st.bufs[q] = p.GetBuf(ps.binds[q], ps.main, rows, cols, ps.ec.Buf.GetUninit)
		if n := ps.parts[q]; n > 0 {
			st.acc[q] = ps.ec.Buf.GetUninit(n)
			vector.Fill(st.acc[q], cplan.AggInit(p.Agg), 0, n)
		}
	}
	return st
}

// release returns a worker's registers, partials and scratch to their pools.
func (ps *pass) release(st *worker) {
	ps.ec.PutBuf(st.tmp)
	for q, b := range st.bufs {
		ps.ec.PutBuf(ps.progs[q].PutBuf(b))
		if st.acc[q] != nil {
			ps.ec.PutBuf(st.acc[q])
		}
	}
}

// scratch returns storage for a value per row of a step, released with the
// worker.
func (ps *pass) scratch(st *worker, n int) []float64 {
	if st.tmp == nil {
		rows := 0
		for _, c := range st.caps {
			rows = max(rows, c[0])
		}
		st.tmp = ps.ec.Buf.GetUninit(rows)
	}
	return st.tmp[:n]
}

// run streams main through the roots and returns the workers' states (nil
// for a worker that claimed no chunk), whose partials the caller merges.
func (ps *pass) run() []*worker {
	rows, perRow := ps.main.Rows, ps.cols
	if ps.binds[0] == cplan.MainNnz {
		perRow = max(len(ps.main.Sparse().Values)/rows, 1)
	}
	// A tile is as many rows as the root with the lightest registers takes
	// in one step; its siblings run it in steps of their own, so each finds
	// the tile in the cache. A root that steps column ranges of one row sets
	// no tile: it runs a tile's rows a range at a time, and alone every row a
	// worker gets, where its uniform registers are primed once per range.
	tile, ranged := 0, false
	for q, p := range ps.progs {
		n, cols := p.TileSize(ps.cols, ps.binds[q])
		if ps.binds[q] == cplan.MainNnz {
			n /= perRow // its steps are cells
		} else if cols < ps.cols {
			ranged = true
			continue
		}
		tile = max(tile, n)
	}
	if tile == 0 && ranged {
		tile = rows
	}
	tile = max(tile, 1)
	// A cell of an Outer body costs a rank-r dot product on top of the body.
	grain := max(grainCells/(perRow*(1+ps.ctx.Rank/4)), 1)
	nw, _ := ps.ec.Par.Chunks(rows, grain)
	states := make([]*worker, nw)
	ps.ec.Par.ForIndexed(rows, grain, func(w, lo, hi int) {
		// Per-worker state is lazily initialized and accumulated: a worker
		// id may be handed several chunks by the pool.
		if states[w] == nil {
			states[w] = ps.newWorker()
		}
		for i0 := lo; i0 < hi && !ps.stop.stopped(); i0 += tile { // one poll per tile
			for q := range ps.progs {
				ps.runRoot(states[w], q, i0, min(i0+tile, hi))
			}
		}
	})
	return states
}

// runRoot runs root q over main rows [i0, i1), in the steps its layout asks
// for: as many whole rows as its registers hold, a column range of one row
// at a time, or as many stored cells.
func (ps *pass) runRoot(st *worker, q, i0, i1 int) {
	b, rows, cols := st.bufs[q], st.caps[q][0], st.caps[q][1]
	if b.Bind == cplan.MainNnz {
		rp := b.CSR.RowPtr
		for k := rp[i0]; k < rp[i1]; k += rows {
			b.Span(i0, k, min(k+rows, rp[i1]))
			ps.step(st, q)
		}
		return
	}
	for c := 0; c < ps.cols; c += cols { // the column range outside: uniform registers hold it
		for i := i0; i < i1; i += rows {
			b.Tile(i, min(rows, i1-i), c, min(cols, ps.cols-c))
			ps.step(st, q)
		}
	}
}

// step executes root q over the tile its registers are set to and hands the
// result rows to the root's sink.
func (ps *pass) step(st *worker, q int) {
	p, b, dst := ps.progs[q], st.bufs[q], ps.dsts[q]
	// Where the rows of the tile go in an output that keeps them.
	at, stride := b.I*p.OutCols(ps.cols)+b.C, p.OutCols(ps.cols)
	if b.Bind == cplan.MainNnz {
		at, stride = b.K0, 1
	}
	var out []float64
	if dst != nil && p.Kind == cplan.CellNoAgg && (b.N == 1 || p.OutCols(b.W) == stride) {
		out = dst[at:] // the rows lie back to back
	}
	p.Exec(st.ctx, b, out)
	res, ro, rs, w := p.Result(b)
	var y []float64 // the second factor of a folded product
	yo, ys := 0, 0
	if p.DotReg >= 0 {
		y, yo, ys = b.Vec[p.DotReg], b.Off[p.DotReg], b.Str[p.DotReg]
	}
	flat := b.N == 1 || (rs == w && (y == nil || ys == w)) // the result cells are one run
	switch {
	case ps.product != nil && p.Kind == cplan.CellNoAgg:
		ps.product(st, b, res, ro, rs)
	case p.Kind == cplan.CellNoAgg:
		if b.Direct {
			return
		}
		if rs == w && stride == w {
			copy(dst[at:at+b.N*w], res[ro:])
			return
		}
		for t := 0; t < b.N; t++ {
			copy(dst[at+t*stride:][:w], res[ro+t*rs:])
		}
	case p.Kind == cplan.CellRowAgg && b.Bind == cplan.MainNnz:
		// Sums over the stored cells of each row, a long row a span at a time.
		for i := b.I; i < b.I+b.NR; i++ {
			lo, hi := b.Seg(i)
			dst[i] += fold(p.Agg, res, ro+lo-b.K0, y, yo+lo-b.K0, hi-lo)
		}
	case p.Kind == cplan.CellRowAgg:
		d := dst[b.I : b.I+b.N]
		if b.C > 0 { // a further column range of the rows: merge
			d = ps.scratch(st, b.N)
		}
		foldRows(p.Agg, res, ro, rs, y, yo, ys, d, b.N, w)
		if b.C > 0 {
			for t, v := range d {
				dst[b.I+t] = cplan.AggMerge(p.Agg, dst[b.I+t], v)
			}
		}
	case p.T: // C (mainWidth × w) += t(main tile) %*% result tile
		part := st.acc[q]
		if b.Bind != cplan.MainCSR {
			vector.TMatMultAdd(b.Vec[0], res, part, b.Off[0], b.Str[0], ro, rs, 0, b.N, p.MainWidth, w)
			return
		}
		// genexecSparse: accumulate over the non-zeros of X_i only.
		for t := 0; t < b.N; t++ {
			vals, cix := b.CSR.Row(b.I + t)
			if w > 1 {
				vector.OuterMultAddSparse(vals, cix, res, part, ro+t*rs, 0, w)
				continue
			}
			// Scalar result q_i: a call per row would cost more than the
			// few non-zeros it covers.
			v := res[ro+t*rs]
			for k, j := range cix {
				part[j] += v * vals[k]
			}
		}
	case p.Kind == cplan.CellColAgg && b.Bind == cplan.MainNnz:
		part := st.acc[q]
		for k, j := range b.CSR.ColIdx[b.K0 : b.K0+b.N] {
			part[j] += res[ro+k]
		}
	case p.Kind == cplan.CellColAgg:
		foldCols(p.Agg, res, ro, rs, b.N, w, st.acc[q][b.C:], ps.wts, b.I)
	case ps.wts != nil && p.Agg == matrix.AggSum:
		// Every row counts as often as its tuple occurs: the row sums
		// against the counts.
		t := ps.scratch(st, b.N)
		foldRows(p.Agg, res, ro, rs, y, yo, ys, t, b.N, w)
		st.acc[q][0] += vector.DotProduct(t, ps.wts, 0, b.I, b.N)
	case flat:
		st.acc[q][0] = cplan.AggMerge(p.Agg, st.acc[q][0], fold(p.Agg, res, ro, y, yo, b.N*w))
	default:
		for t := 0; t < b.N; t++ {
			st.acc[q][0] = cplan.AggMerge(p.Agg, st.acc[q][0], fold(p.Agg, res, ro+t*rs, y, yo+t*ys, w))
		}
	}
}

// fold reduces the n cells at a[ao], times those at y[yo] where y is set (a
// sum), by agg.
func fold(agg matrix.AggOp, a []float64, ao int, y []float64, yo, n int) float64 {
	switch {
	case y != nil:
		return vector.DotProduct(a, y, ao, yo, n)
	case agg == matrix.AggMin:
		return vector.Min(a, ao, n)
	case agg == matrix.AggMax:
		return vector.Max(a, ao, n)
	}
	return vector.Sum(a, ao, n)
}

// foldRows writes d[t] = fold of row t of the rows×w block at a[ao].
func foldRows(agg matrix.AggOp, a []float64, ao, as int, y []float64, yo, ys int, d []float64, rows, w int) {
	switch {
	case y == nil:
		agg.Rows(a, ao, as, d, rows, w) // narrow rows in one kernel call
		return
	case w == 1 && as == 1 && ys == 1: // rows of one cell: the products
		vector.Binary(vector.OpMul, a, y, d, ao, yo, 0, rows)
		return
	}
	for t := range d[:rows] {
		d[t] = vector.DotProduct(a, y, ao+t*as, yo+t*ys, w)
	}
}

var one = []float64{1}

// foldCols folds the rows×n block at a[ao] into the n column partials, row
// t of a sum weighted by wts[wo+t] (nil: 1).
func foldCols(agg matrix.AggOp, a []float64, ao, as, rows, n int, part, wts []float64, wo int) {
	if agg == matrix.AggSum {
		// Column sums are t(block) %*% weights: four rows per pass.
		ws := 1
		if wts == nil {
			wts, wo, ws = one, 0, 0
		}
		vector.TMatMultAdd(a, wts, part, ao, as, wo, ws, 0, rows, n, 1)
		return
	}
	k := vector.OpMin
	if agg == matrix.AggMax {
		k = vector.OpMax
	}
	for t := 0; t < rows; t++ {
		vector.Binary(k, part, a, part, 0, ao+t*as, 0, n)
	}
}

// merged folds the workers' partials of root q into one (the identity of
// the aggregation where no worker ran).
func (ps *pass) merged(states []*worker, q int, od []float64) {
	agg := ps.progs[q].Agg
	vector.Fill(od, cplan.AggInit(agg), 0, len(od))
	for _, st := range states {
		if st == nil {
			continue
		}
		if agg == matrix.AggSum {
			vector.Add(st.acc[q], od, 0, 0, len(od))
			continue
		}
		for j, v := range st.acc[q][:len(od)] {
			od[j] = cplan.AggMerge(agg, od[j], v)
		}
	}
}

// execPass runs the roots of op over main and returns one output per root
// and the binding taken. With outer set — the products of the Outer
// template — the values of the one NoAgg root are not an output: the sink
// consumes them tile by tile.
func execPass(ec matrix.Ctx, op *cplan.Operator, main *matrix.Matrix, ctx *cplan.Ctx, stop StopFn, outer *outerSink) ([]*matrix.Matrix, Binding) {
	ps := newPass(ec, op.Plan.SparseSafe, op.Progs, main, main.Cols, ctx, stop)
	rows, cols := main.Rows, main.Cols
	nnz := ps.binds[0] == cplan.MainNnz
	// Destinations. Every dense output is written in full, so the pool's
	// zeroing pass over recycled storage would be a wasted write. Under
	// non-zero iteration a NoAgg output keeps main's sparsity pattern.
	outs := make([]*matrix.Matrix, len(op.Progs))
	for q, p := range op.Progs {
		oc := p.OutCols(cols)
		switch {
		case outer != nil && p.Kind == cplan.CellNoAgg:
			ps.product, ps.parts[q] = outer.sink, outer.part
		case p.Kind == cplan.CellNoAgg && nnz:
			ps.dsts[q] = make([]float64, len(main.Sparse().Values))
		case p.Kind == cplan.CellNoAgg:
			outs[q] = ec.NewDenseUninit(rows, oc)
		case p.Kind == cplan.CellRowAgg && nnz:
			outs[q] = ec.NewDense(rows, 1) // summed into, a span at a time
		case p.Kind == cplan.CellRowAgg:
			outs[q] = ec.NewDenseUninit(rows, 1)
		case p.T:
			ps.parts[q] = p.MainWidth * oc
		case p.Kind == cplan.CellColAgg:
			ps.parts[q] = oc
		default:
			ps.parts[q] = 1
		}
		if outs[q] != nil {
			ps.dsts[q] = outs[q].Dense()
		}
	}
	states := ps.run()

	// Merge the workers' partials into the folding outputs and wrap up.
	bind := BindView
	if main.IsSparse() {
		bind = BindNnz // but for a root that densifies its tiles
	}
	for q, p := range op.Progs {
		switch {
		case ps.parts[q] == 1:
			var v [1]float64
			ps.merged(states, q, v[:])
			outs[q] = matrix.NewScalar(v[0])
		case ps.parts[q] > 0 && outer == nil:
			outs[q] = ec.NewDenseUninit(ps.parts[q]/p.OutCols(cols), p.OutCols(cols))
			ps.merged(states, q, outs[q].Dense())
		case ps.parts[q] > 0:
			ps.merged(states, q, outer.out.Dense())
		case p.Kind == cplan.CellNoAgg && nnz && outer == nil:
			ms := main.Sparse()
			outs[q] = matrix.NewSparseCSR(rows, cols, &matrix.CSR{
				RowPtr: append([]int(nil), ms.RowPtr...),
				ColIdx: append([]int(nil), ms.ColIdx...),
				Values: ps.dsts[q],
			})
		}
	}
	for _, st := range states {
		if st == nil {
			continue
		}
		for _, b := range st.bufs {
			if b.Filled && !nnz {
				bind = BindFill
			}
		}
		ps.release(st)
	}
	return outs, bind
}
