package vector

// Tile kernels: dense products over a block of consecutive rows. They are
// the inner kernels of matrix.MatMult (one call per parallel row chunk)
// and of the fused bodies' tile executor (one call per tile of rows), so
// both run the same blocked loops.

const (
	// narrowCols is the width of the narrow kernels: up to it a product's
	// output rows are accumulated in registers over the whole common
	// dimension and stored once (no store-to-load dependency per k, no
	// per-row primitive call); a wider product runs them in strips of
	// narrowCols columns.
	narrowCols = 8

	// shortRow: a row of at most this many cells fits in eight YMM
	// registers, where the short-row kernels keep v (X %*% v) or the sums
	// (t(X) %*% y) for a whole call.
	shortRow = 32

	// kTile and mTile block a product of strips: the strips of one panel
	// read the same kTile×mTile panel of A (128×64 doubles = 64 KB, L2),
	// and C is loaded and stored once per kTile steps. Rank-4 updates (the
	// portable wide loop, and a product of fewer than four rows) reuse a
	// kTile×nTile panel of B (128×1024 doubles = 1 MB, L2) across the rows
	// of a block instead.
	kTile = 128
	mTile = 64
	nTile = 1024
)

// MatMultAdd accumulates C += A %*% B for a block of rows: A is rows×k at
// a[ai] with row stride astride, B is k×n row-major at b[bi], C is rows×n
// row-major at c[ci]. Callers zero C for a plain product.
//
// Every product multiplies every element, at any width, kernel and Go loop
// alike: a zero in A is not skipped, so it meets an Inf or NaN in B as NaN.
// The sign of a zero result is not specified: the kernels sum from +0 and
// add the sum to C, the Go loops add into C. One column over rows of at
// most shortRow cells is DotRows' kernel; any other width runs the narrow
// kernels (strips).
func MatMultAdd(a, b, c []float64, ai, astride, bi, ci, rows, k, n int) {
	if useAsm && rows > 0 && k > 0 && n > 0 {
		if n == 1 && k <= shortRow {
			dotRows(a, b, c, ai, astride, bi, ci, rows, k)
			return
		}
		strips(a, b, c, ai, astride, 1, bi, n, ci, n, rows, k, n)
		return
	}
	matMultAddGo(a, b, c, ai, astride, bi, ci, rows, k, n)
}

func matMultAddGo(a, b, c []float64, ai, astride, bi, ci, rows, k, n int) {
	if n < narrowCols {
		i := 0
		for ; i+4 <= rows; i += 4 {
			narrowRows4(a, b[bi:], c[ci+i*n:ci+(i+4)*n], ai+i*astride, astride, k, n)
		}
		for ; i < rows; i++ {
			narrowRow(a[ai+i*astride:ai+i*astride+k], b[bi:], c[ci+i*n:ci+i*n+n], n)
		}
		return
	}
	// ikj order, tiled over n and k so a panel of B is reused across the
	// rows of the block, and unrolled over k by 4 so each C element is
	// loaded and stored once per four multiplies.
	for jj := 0; jj < n; jj += nTile {
		jn := min(n-jj, nTile)
		for kk := 0; kk < k; kk += kTile {
			kmax := min(kk+kTile, k)
			for i := 0; i < rows; i++ {
				ao := ai + i*astride
				co := ci + i*n + jj
				k4 := kk
				for ; k4+4 <= kmax; k4 += 4 {
					bo := bi + k4*n + jj
					multAdd4Go(b, a[ao+k4], a[ao+k4+1], a[ao+k4+2], a[ao+k4+3],
						c, bo, bo+n, bo+2*n, bo+3*n, co, jn)
				}
				for ; k4 < kmax; k4++ {
					multAddGo(b, a[ao+k4], c, bi+k4*n+jj, co, jn)
				}
			}
		}
	}
}

// DotRowsAt writes d[t] = the inner product of row ix[t] of V (rows of k
// cells, k apart) with u[ui:ui+k], t in [0, len(ix)): the dot of the Outer
// template, U_i·V_j over the stored cells of a row. Rows of at most shortRow
// cells take one kernel call, which reads the indexed rows in place, u in
// registers, four rows per reduction; longer rows take a DotProduct call
// each.
func DotRowsAt(v, u, d []float64, ix []int, ui, k int) {
	done := 0
	if k <= shortRow && useAsm && len(ix) > 0 && k > 0 && len(v) >= k {
		_, _ = u[ui+k-1], d[len(ix)-1]
		clear(d[:len(ix)])
		done = dotIdxAsm((k+3)/4, &v[0], k, &u[ui], &d[0], len(ix), chunkMask(k), tailMask(len(ix)), &ix[0], len(v)-k)
	}
	for t, j := range ix[done:] {
		d[done+t] = DotProduct(v, u, j*k, ui, k)
	}
}

// DotRows writes d[t] = the inner product of row t of A (rows×k at a[ai],
// astride apart) with v[vi:vi+k], t in [0,rows): a matrix-vector product.
// Rows of at most shortRow cells take one kernel call for the block: v
// stays in registers, four rows per pass, one transposing reduction and one
// store per four results. Longer rows take a DotProduct call each.
func DotRows(a, v, d []float64, ai, astride, vi, rows, k int) {
	if k <= shortRow && useAsm && rows > 0 && k > 0 {
		clear(d[:rows])
		dotRows(a, v, d, ai, astride, vi, 0, rows, k)
		return
	}
	for t := range d[:rows] {
		d[t] = DotProduct(a, v, ai+t*astride, vi, k)
	}
}

// dotRows runs the assembly d[di+t] += row t of A . v[vi:vi+k] (0 < k <=
// shortRow) after checking the last element of every operand.
func dotRows(a, v, d []float64, ai, astride, vi, di, rows, k int) {
	if astride < 0 {
		panic("vector: negative stride")
	}
	_, _, _ = a[ai+(rows-1)*astride+k-1], v[vi+k-1], d[di+rows-1]
	dotRowsAsm((k+3)/4, &a[ai], astride, &v[vi], &d[di], rows, chunkMask(k), tailMask(rows))
}

// chunkMask is the mask of the last chunk of four lanes of a row of k > 0
// cells: 1-4 lanes.
func chunkMask(k int) *[4]int64 { return (*[4]int64)(laneMask[3-(k-1)&3:]) }

// laneMask[4-w:] is the VMASKMOVPD mask of the first w of four lanes.
var laneMask = [8]int64{-1, -1, -1, -1, 0, 0, 0, 0}

// strips runs C (rows×n, rows cstride apart at c[ci]) += A %*% B through
// the narrow kernels, A's element (i, kk) at a[ai+i*arow+kk*ak], B's row kk
// at b[bi+kk*bstride]: one call up to narrowCols columns, strips of
// narrowCols columns past it, over panels of kTile steps and mTile rows.
// Every row of one call takes the same arithmetic, so equal rows of A give
// equal rows of C bit for bit (KMeans' tied centroids stay tied): from four
// rows up every row runs in the kernel's groups, a last group of one to
// three rows included, and a product of fewer than four rows takes rank-4
// updates over a kTile×nTile panel of B for every row, since a kernel's
// group would compute its first row again in place of each missing row.
func strips(a, b, c []float64, ai, arow, ak, bi, bstride, ci, cstride, rows, k, n int) {
	if n <= narrowCols {
		narrow(a, b, c, ai, arow, ak, bi, bstride, ci, cstride, rows, k, n)
		return
	}
	for kk := 0; kk < k; kk += kTile {
		kn := min(kTile, k-kk)
		if rows < 4 {
			for jj := 0; jj < n; jj += nTile {
				for i := 0; i < rows; i++ {
					rank4(a, b, c, ai+i*arow+kk*ak, ak, bi+kk*bstride+jj, bstride, ci+i*cstride+jj, kn, min(nTile, n-jj))
				}
			}
			continue
		}
		for i := 0; i < rows; i += mTile {
			ao, co := ai+i*arow+kk*ak, ci+i*cstride
			for j := 0; j < n; j += narrowCols {
				narrow(a, b, c, ao, arow, ak, bi+kk*bstride+j, bstride, co+j, cstride,
					min(mTile, rows-i), kn, min(narrowCols, n-j))
			}
		}
	}
}

// rank4 accumulates c[ci:ci+n) += the sum over t < k of w[wi+t*ws] times
// the row of r at r[ri+t*rs:], a product with one output row: a rank-4
// kernel call per four rows of r, each read once, no weight skipped (n >=
// asmMin).
func rank4(w, r, c []float64, wi, ws, ri, rs, ci, k, n int) {
	if ws < 0 || rs < 0 {
		panic("vector: negative stride")
	}
	_, _, _ = w[wi+(k-1)*ws], r[ri+(k-1)*rs+n-1], c[ci+n-1]
	t := 0
	for ; t+4 <= k; t += 4 {
		wo, ro := wi+t*ws, ri+t*rs
		multAdd4Asm(&r[ro], &r[ro+rs], &r[ro+2*rs], &r[ro+3*rs],
			w[wo], w[wo+ws], w[wo+2*ws], w[wo+3*ws], &c[ci], n)
	}
	for ; t < k; t++ {
		multAddAsm(&r[ri+t*rs], w[wi+t*ws], &c[ci], n)
	}
}

// narrow runs the assembly narrow product C (rows×n, rows cstride apart at
// c[ci], n <= narrowCols) += A %*% B, A and B as in strips: one kernel
// call, the 5-8 column kernel sharing each broadcast of A between two lane
// groups, after checking the last element of every operand.
func narrow(a, b, c []float64, ai, arow, ak, bi, bstride, ci, cstride, rows, k, n int) {
	if arow < 0 || ak < 0 || bstride < 0 || cstride < 0 {
		panic("vector: negative stride")
	}
	_, _, _ = a[ai+(rows-1)*arow+(k-1)*ak], b[bi+(k-1)*bstride+n-1], c[ci+(rows-1)*cstride+n-1]
	if n > 4 {
		narrow8Asm(&a[ai], arow, ak, &b[bi], bstride, &c[ci], cstride, rows, k, (*[4]int64)(laneMask[8-n:]))
		return
	}
	narrowAsm(&a[ai], arow, ak, &b[bi], bstride, &c[ci], cstride, rows, k, (*[4]int64)(laneMask[4-n:]))
}

// narrowRows4 accumulates four rows of C (4×n at c[0], n < narrowCols) +=
// four rows of A (at a[ao], astride apart, k long) %*% B (k×n at b[0]).
// Output columns are taken two at a time, their 4×2 sums living in locals
// over one pass of k: eight independent accumulation chains, and three
// loads per four multiplies.
func narrowRows4(a, b, c []float64, ao, astride, k, n int) {
	a0 := a[ao : ao+k]
	a1 := a[ao+astride : ao+astride+k]
	a2 := a[ao+2*astride : ao+2*astride+k]
	a3 := a[ao+3*astride : ao+3*astride+k]
	j := 0
	for ; j+2 <= n; j += 2 {
		var r00, r01, r10, r11, r20, r21, r30, r31 float64
		bo := j
		for kk, v0 := range a0 {
			bb := b[bo : bo+2]
			b0, b1 := bb[0], bb[1]
			v1, v2, v3 := a1[kk], a2[kk], a3[kk]
			r00 += v0 * b0
			r01 += v0 * b1
			r10 += v1 * b0
			r11 += v1 * b1
			r20 += v2 * b0
			r21 += v2 * b1
			r30 += v3 * b0
			r31 += v3 * b1
			bo += n
		}
		c[j] += r00
		c[j+1] += r01
		c[n+j] += r10
		c[n+j+1] += r11
		c[2*n+j] += r20
		c[2*n+j+1] += r21
		c[3*n+j] += r30
		c[3*n+j+1] += r31
	}
	if j < n {
		var r0, r1, r2, r3 float64
		bo := j
		for kk, v0 := range a0 {
			bv := b[bo]
			r0 += v0 * bv
			r1 += a1[kk] * bv
			r2 += a2[kk] * bv
			r3 += a3[kk] * bv
			bo += n
		}
		c[j] += r0
		c[n+j] += r1
		c[2*n+j] += r2
		c[3*n+j] += r3
	}
}

// narrowRow is narrowRows4 for one row (the rows left over after the
// blocks of four): c (n outputs) += arow %*% B, two outputs per pass.
func narrowRow(arow, b, c []float64, n int) {
	j := 0
	for ; j+2 <= n; j += 2 {
		var c0, c1 float64
		bo := j
		for _, av := range arow {
			bb := b[bo : bo+2]
			c0 += av * bb[0]
			c1 += av * bb[1]
			bo += n
		}
		c[j] += c0
		c[j+1] += c1
	}
	if j < n {
		var c0 float64
		bo := j
		for _, av := range arow {
			c0 += av * b[bo]
			bo += n
		}
		c[j] += c0
	}
}

// TMatMultAdd accumulates C += t(A) %*% B over a block of rows: A is
// rows×m at a[ai] with row stride astride, B is rows×n at b[bi] with row
// stride bstride (0 repeats one row), C is m×n row-major at c[ci]. This is
// the tile form of the Row template's t(X) %*% W accumulation
// (vectOuterMultAdd once per row), under MatMultAdd's contract: from two
// columns the narrow kernels with A read down its columns (strips), and
// with one column and rows of at most shortRow cells one kernel call keeps
// the m sums in registers for the whole block.
func TMatMultAdd(a, b, c []float64, ai, astride, bi, bstride, ci, rows, m, n int) {
	if useAsm && rows > 0 && m > 0 && n > 0 {
		if n > 1 {
			strips(a, b, c, ai, 1, astride, bi, bstride, ci, n, m, rows, n)
			return
		}
		if m > shortRow {
			// Longer rows: rank-4 updates. (tDotAsm per panel of shortRow
			// outputs strides across pages and is slower on wide blocks.)
			rank4(b, a, c, bi, bstride, ai, astride, ci, rows, m)
			return
		}
		if astride < 0 || bstride < 0 {
			panic("vector: negative stride")
		}
		_, _, _ = a[ai+(rows-1)*astride+m-1], b[bi+(rows-1)*bstride], c[ci+m-1]
		tDotAsm((m+3)/4, &a[ai], astride, &b[bi], bstride, &c[ci], rows, chunkMask(m))
		return
	}
	tMatMultAddGo(a, b, c, ai, astride, bi, bstride, ci, rows, m, n)
}

// tMatMultAddGo is TMatMultAdd's portable loop: four rows per rank-4
// update, no multiplier skipped.
func tMatMultAddGo(a, b, c []float64, ai, astride, bi, bstride, ci, rows, m, n int) {
	i := 0
	if n == 1 {
		for ; i+4 <= rows; i += 4 {
			ao, bo := ai+i*astride, bi+i*bstride
			multAdd4Go(a, b[bo], b[bo+bstride], b[bo+2*bstride], b[bo+3*bstride],
				c, ao, ao+astride, ao+2*astride, ao+3*astride, ci, m)
		}
		for ; i < rows; i++ {
			multAddGo(a, b[bi+i*bstride], c, ai+i*astride, ci, m)
		}
		return
	}
	for ; i+4 <= rows; i += 4 {
		ao, bo := ai+i*astride, bi+i*bstride
		b0, b1 := b[bo:bo+n], b[bo+bstride:bo+bstride+n]
		b2, b3 := b[bo+2*bstride:bo+2*bstride+n], b[bo+3*bstride:bo+3*bstride+n]
		for j := 0; j < m; j++ {
			v0, v1, v2, v3 := a[ao+j], a[ao+astride+j], a[ao+2*astride+j], a[ao+3*astride+j]
			cc := c[ci+j*n : ci+j*n+n]
			for q := range cc {
				cc[q] += v0*b0[q] + v1*b1[q] + v2*b2[q] + v3*b3[q]
			}
		}
	}
	for ; i < rows; i++ {
		ao, bb := ai+i*astride, b[bi+i*bstride:bi+i*bstride+n]
		for j := 0; j < m; j++ {
			v := a[ao+j]
			cc := c[ci+j*n : ci+j*n+n]
			for q := range cc {
				cc[q] += v * bb[q]
			}
		}
	}
}

// Reduce names a reduction of RowReduce.
type Reduce uint8

// The row reductions.
const (
	ReduceSum Reduce = iota
	ReduceSumSq
	ReduceMin
	ReduceMax
	numReduces
)

// RowReduce writes d[t] = reduce(a[ai+t*astride : +w]) for t in [0, rows):
// one call per tile of a Row program. Rows narrower than narrowCols — the
// class scores of MLogreg, the centroid distances of KMeans — are reduced
// inside one kernel call, wider ones by one call each of Sum, SumSq, Min
// or Max.
func RowReduce(op Reduce, a []float64, ai, astride int, d []float64, rows, w int) {
	if rows <= 0 {
		return
	}
	if 0 < w && w < narrowCols {
		if astride < 0 {
			panic("vector: negative stride")
		}
		_, _ = a[ai+(rows-1)*astride+w-1], d[rows-1]
		if useAsm {
			lo, hi := (*[4]int64)(laneMask[4-min(w, 4):]), (*[4]int64)(laneMask[4-max(w-4, 0):])
			rowReduceAsm(int(op), &a[ai], astride, &d[0], rows, lo, hi, tailMask(rows))
			return
		}
		rowReduceGo(op, a, ai, astride, d, rows, w)
		return
	}
	for t := 0; t < rows; t++ {
		switch op {
		case ReduceSum:
			d[t] = Sum(a, ai+t*astride, w)
		case ReduceSumSq:
			d[t] = SumSq(a, ai+t*astride, w)
		case ReduceMin:
			d[t] = Min(a, ai+t*astride, w)
		case ReduceMax:
			d[t] = Max(a, ai+t*astride, w)
		}
	}
}

func rowReduceGo(op Reduce, a []float64, ai, astride int, d []float64, rows, w int) {
	for t := 0; t < rows; t++ {
		x := a[ai+t*astride:][:w]
		var r float64
		switch op {
		case ReduceSum:
			for _, v := range x {
				r += v
			}
		case ReduceSumSq:
			for _, v := range x {
				r += v * v
			}
		case ReduceMin:
			r = x[0]
			for _, v := range x {
				r = Min2(r, v)
			}
		case ReduceMax:
			r = x[0]
			for _, v := range x {
				r = Max2(r, v)
			}
		}
		d[t] = r
	}
}
