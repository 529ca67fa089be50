package matrix

import (
	"fmt"
	"math"
	"sort"

	"sysml/internal/vector"
)

// Matrix-multiplication kernel dispatch thresholds. Representation choice
// (dense vs. CSR input kernels) follows the inputs; only the sparse×sparse
// product chooses its own output format, via spspOutputSparseThreshold.
const (
	// mmRowGrain is the minimum number of output rows per parallel chunk
	// for the dense and sparse-input kernels.
	mmRowGrain = 8

	// mmSplitMaxRows and mmSplitMinK select the dense product's k-split:
	// with at most this many output rows and at least this long a common
	// dimension, workers take ranges of k instead of ranges of rows.
	mmSplitMaxRows = 32
	mmSplitMinK    = 8192

	// spspOutputSparseThreshold: a sparse×sparse product whose estimated
	// output sparsity is below this builds a CSR result directly (avoiding
	// a dense rows×cols allocation); denser products accumulate into a
	// dense output. Deliberately below SparsityThreshold so borderline
	// products stay dense (matrix products densify quickly).
	spspOutputSparseThreshold = 0.1

	// spspOutputSparseMinCols: tiny outputs always stay dense — CSR
	// overhead only pays off with enough columns per row.
	spspOutputSparseMinCols = 64
)

// MatMult computes C = A %*% B on the default execution context.
func MatMult(a, b *Matrix) *Matrix { return Ctx{}.MatMult(a, b) }

// MatMult computes C = A %*% B, dispatching on representations. Dense×dense
// runs the blocked vector.MatMultAdd kernel parallelized over row blocks (or
// over the common dimension for few long rows); sparse left inputs iterate
// nonzeros per row. The output is
// dense except for very sparse sparse×sparse products, which build CSR
// directly (see spspOutputSparseThreshold).
func (ctx Ctx) MatMult(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: matmult shape mismatch %dx%d x %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if a.IsSparse() && b.IsSparse() {
		return ctx.matMultSparseSparse(a, b)
	}
	out := ctx.NewDense(a.Rows, b.Cols)
	switch {
	case !a.IsSparse() && !b.IsSparse():
		ctx.matMultDenseDense(a, b, out)
	case a.IsSparse() && !b.IsSparse():
		ctx.matMultSparseDense(a, b, out)
	default:
		ctx.matMultDenseSparse(a, b, out)
	}
	return out
}

func (ctx Ctx) matMultDenseDense(a, b, c *Matrix) {
	m, k, n := a.Rows, a.Cols, b.Cols
	ad, bd, cd := a.dense, b.dense, c.dense
	if n == 1 {
		// Matrix-vector: per-row dot products.
		ctx.Par.For(m, 32, func(lo, hi int) {
			vector.DotRows(ad, bd, cd[lo:], lo*k, k, 0, hi-lo, k)
		})
		return
	}
	if m <= mmSplitMaxRows && k >= mmSplitMinK {
		// Few long rows (t(X) %*% W with X tall and narrow): the rows alone
		// cannot occupy the workers, so split the common dimension and sum
		// the chunks' partial products in order.
		ctx.foldRows(k, mmSplitMinK/2, m*n, cd, func(part []float64, lo, hi int) {
			vector.MatMultAdd(ad, bd, part, lo, k, lo*n, 0, m, hi-lo, n)
		}, func(part []float64) { vector.Add(part, cd, 0, 0, m*n) })
		return
	}
	ctx.Par.For(m, mmRowGrain, func(lo, hi int) {
		vector.MatMultAdd(ad, bd, cd, lo*k, k, 0, lo*n, hi-lo, k, n)
	})
}

func (ctx Ctx) matMultSparseDense(a, b, c *Matrix) {
	n := b.Cols
	as, bd, cd := a.sparse, b.dense, c.dense
	if n == 1 {
		ctx.Par.For(a.Rows, 32, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				vals, cols := as.Row(i)
				cd[i] = vector.DotProductSparse(vals, cols, bd, 0)
			}
		})
		return
	}
	ctx.Par.For(a.Rows, mmRowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			vals, cols := as.Row(i)
			vector.MatMultSparse(vals, cols, bd, cd, 0, i*n, n)
		}
	})
}

func (ctx Ctx) matMultDenseSparse(a, b, c *Matrix) {
	m, k, n := a.Rows, a.Cols, b.Cols
	ad, bs, cd := a.dense, b.sparse, c.dense
	ctx.Par.For(m, mmRowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai, ci := i*k, i*n
			for kk := 0; kk < k; kk++ {
				av := ad[ai+kk]
				if av == 0 {
					continue
				}
				vals, cols := bs.Row(kk)
				for p, j := range cols {
					cd[ci+j] += av * vals[p]
				}
			}
		}
	})
}

// estProductSparsity estimates the output sparsity of A %*% B under the
// standard independence assumption (Boehm et al., metadata propagation):
// P[c_ij != 0] = 1 - (1 - spA*spB)^k.
func estProductSparsity(a, b *Matrix) float64 {
	spA := float64(a.sparse.Nnz()) / (float64(a.Rows) * float64(a.Cols))
	spB := float64(b.sparse.Nnz()) / (float64(b.Rows) * float64(b.Cols))
	return 1 - math.Pow(1-spA*spB, float64(a.Cols))
}

func (ctx Ctx) matMultSparseSparse(a, b *Matrix) *Matrix {
	n := b.Cols
	if n >= spspOutputSparseMinCols && estProductSparsity(a, b) < spspOutputSparseThreshold {
		return ctx.matMultSparseSparseSparseOut(a, b)
	}
	out := ctx.NewDense(a.Rows, n)
	as, bs, cd := a.sparse, b.sparse, out.dense
	ctx.Par.For(a.Rows, mmRowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			avals, acols := as.Row(i)
			ci := i * n
			for ka, kk := range acols {
				av := avals[ka]
				bvals, bcols := bs.Row(kk)
				for p, j := range bcols {
					cd[ci+j] += av * bvals[p]
				}
			}
		}
	})
	return out
}

// spa is a participant's sparse accumulator (dense row accumulator with a
// touched-column list and per-row generation marks), reused across all
// chunks it claims.
type spa struct {
	acc     []float64
	mark    []int
	touched []int
	bp      *BufPool // pool acc was drawn from
}

func newSPA(n int, bp *BufPool) *spa {
	s := &spa{acc: bp.Get(n), mark: make([]int, n), touched: make([]int, 0, 256), bp: bp}
	for j := range s.mark {
		s.mark[j] = -1
	}
	return s
}

func (s *spa) release() { s.bp.Put(s.acc) }

// matMultSparseSparseSparseOut builds a CSR product: each participant
// scatters B-rows into its dense row accumulator, gathers the touched
// columns in sorted order, and appends finished rows to the CSR fragment of
// the chunk; the fragments are stitched in chunk order, which is row order.
func (ctx Ctx) matMultSparseSparseSparseOut(a, b *Matrix) *Matrix {
	n := b.Cols
	as, bs := a.sparse, b.sparse
	type frag struct {
		lo     int
		rowPtr []int // nnz per row, later prefix-summed globally
		cols   []int
		vals   []float64
	}
	nw, nc := ctx.Par.Chunks(a.Rows, mmRowGrain)
	spas, frags := make([]*spa, nw), make([]frag, nc)
	ctx.Par.Fold(a.Rows, mmRowGrain, func(w, c, lo, hi int) {
		s := spas[w]
		if s == nil {
			s = newSPA(n, ctx.Buf)
			spas[w] = s
		}
		f := &frags[c]
		f.lo, f.rowPtr = lo, make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			avals, acols := as.Row(i)
			s.touched = s.touched[:0]
			for ka, kk := range acols {
				av := avals[ka]
				bvals, bcols := bs.Row(kk)
				for p, j := range bcols {
					if s.mark[j] != i {
						s.mark[j] = i
						s.acc[j] = 0
						s.touched = append(s.touched, j)
					}
					s.acc[j] += av * bvals[p]
				}
			}
			sort.Ints(s.touched)
			nnz := 0
			for _, j := range s.touched {
				if v := s.acc[j]; v != 0 {
					f.cols = append(f.cols, j)
					f.vals = append(f.vals, v)
					nnz++
				}
			}
			f.rowPtr = append(f.rowPtr, nnz)
		}
	})
	for _, s := range spas {
		if s != nil {
			s.release()
		}
	}
	csr := &CSR{RowPtr: make([]int, a.Rows+1)}
	total := 0
	for _, f := range frags {
		total += len(f.vals)
	}
	csr.ColIdx = make([]int, 0, total)
	csr.Values = make([]float64, 0, total)
	for _, f := range frags {
		for r, nnz := range f.rowPtr {
			csr.RowPtr[f.lo+r+1] = csr.RowPtr[f.lo+r] + nnz
		}
		csr.ColIdx = append(csr.ColIdx, f.cols...)
		csr.Values = append(csr.Values, f.vals...)
	}
	return NewSparseCSR(a.Rows, b.Cols, csr)
}

// TSMM row-blocking parameters.
const (
	// tsmmRowGrain is the minimum number of input rows per parallel chunk.
	tsmmRowGrain = 16

	// tsmmPartialCapBytes caps the total memory spent on per-chunk
	// upper-triangle accumulators; beyond it TSMM runs single-threaded
	// (the result itself would dominate memory anyway).
	tsmmPartialCapBytes = 64 << 20
)

// TSMM computes t(X) %*% X on the default execution context.
func TSMM(x *Matrix) *Matrix { return Ctx{}.TSMM(x) }

// TSMM computes t(X) %*% X exploiting symmetry of the result: only the
// upper triangle is accumulated — in parallel, one triangle per chunk drawn
// from the buffer pool — then reduced in chunk order and mirrored in
// parallel. There is one chunk per participant, so each triangle stays in
// cache across its rows.
// The dense kernel is rank-4 row-blocked (MultAdd4): four input rows per
// pass over the triangle, so each output element is loaded and stored once
// per four updates.
func (ctx Ctx) TSMM(x *Matrix) *Matrix {
	n := x.Cols
	out := ctx.NewDense(n, n)
	od := out.dense
	workers := ctx.Par.MaxWorkers()
	grain := max(tsmmRowGrain, (x.Rows+workers-1)/workers)
	_, nc := ctx.Par.Chunks(x.Rows, grain)
	if nc > 1 && int64(nc)*int64(n)*int64(n)*8 <= tsmmPartialCapBytes {
		partials := make([][]float64, nc)
		ctx.Par.Fold(x.Rows, grain, func(_, c, lo, hi int) {
			partials[c] = ctx.Buf.Get(n * n)
			tsmmUpper(x, partials[c], lo, hi)
		})
		// Reduce the triangles into the output in chunk order, parallel
		// over rows (row i owns the triangle segment [i, n)).
		ctx.Par.For(n, 32, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				off := i*n + i
				for _, part := range partials {
					vector.Add(part, od, off, off, n-i)
				}
			}
		})
		for _, part := range partials {
			ctx.Buf.Put(part)
		}
	} else {
		tsmmUpper(x, od, 0, x.Rows)
	}
	// Mirror the upper triangle, parallel over output rows: row j receives
	// column j of the triangle above it (disjoint contiguous writes).
	ctx.Par.For(n, 64, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			for i := 0; i < j; i++ {
				od[j*n+i] = od[i*n+j]
			}
		}
	})
	return out
}

// tsmmUpper accumulates the upper triangle of t(X[lo:hi]) %*% X[lo:hi]
// into od (a zeroed or partially accumulated n×n buffer).
func tsmmUpper(x *Matrix, od []float64, lo, hi int) {
	n := x.Cols
	if x.IsSparse() {
		xs := x.sparse
		for i := lo; i < hi; i++ {
			vals, cols := xs.Row(i)
			for p, jp := range cols {
				vp := vals[p]
				off := jp * n
				for q := p; q < len(cols); q++ {
					od[off+cols[q]] += vp * vals[q]
				}
			}
		}
		return
	}
	xd := x.dense
	i := lo
	for ; i+8 <= hi; i += 8 {
		o0 := i * n
		o1, o2, o3 := o0+n, o0+2*n, o0+3*n
		o4, o5, o6, o7 := o0+4*n, o0+5*n, o0+6*n, o0+7*n
		for jp := 0; jp < n; jp++ {
			vector.MultAdd8(xd,
				xd[o0+jp], xd[o1+jp], xd[o2+jp], xd[o3+jp],
				xd[o4+jp], xd[o5+jp], xd[o6+jp], xd[o7+jp],
				od, o0+jp, o1+jp, o2+jp, o3+jp, o4+jp, o5+jp, o6+jp, o7+jp,
				jp*n+jp, n-jp)
		}
	}
	for ; i+4 <= hi; i += 4 {
		o0 := i * n
		o1, o2, o3 := o0+n, o0+2*n, o0+3*n
		for jp := 0; jp < n; jp++ {
			vector.MultAdd4(xd,
				xd[o0+jp], xd[o1+jp], xd[o2+jp], xd[o3+jp],
				od, o0+jp, o1+jp, o2+jp, o3+jp,
				jp*n+jp, n-jp)
		}
	}
	for ; i < hi; i++ {
		off := i * n
		for jp := 0; jp < n; jp++ {
			vp := xd[off+jp]
			if vp == 0 {
				continue
			}
			vector.MultAdd(xd, vp, od, off+jp, jp*n+jp, n-jp)
		}
	}
}
