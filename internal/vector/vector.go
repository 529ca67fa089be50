// Package vector implements the library of vector primitives that generated
// fused operators call into, mirroring the SPOOF/SystemML codegen primitive
// library (dotProduct, vectMultAdd, vectMatMult, vectOuterMultAdd, ...).
//
// Keeping these primitives out of the generated operators keeps the per-
// operator instruction footprint small (paper §5.2, Fig. 10); the hot loops
// here are written with 8-fold unrolling like their Java counterparts.
//
// The primitives that hold the profile (reductions, rank-k updates, the
// narrow products, the element-wise maps and comparisons, row reductions of
// narrow tiles, exp/log/sigmoid) have two implementations: the portable Go
// loop named xxxGo, which is also the reference in tests, and an AVX2+FMA
// assembly kernel (kernels_amd64.s). The exported function picks the kernel
// when useAsm is set and the call has at least asmMin elements — three
// families take it at any size: the one-column narrow products over rows
// of at most shortRow cells (X %*% v and t(X) %*% y keep the short
// dimension in registers for a whole block of rows), the reductions of
// rows narrower than narrowCols (RowReduce: one call covers a tile of rows)
// and exp/log/sigmoid (a result must not depend on the length of the call
// it was part of); the CSR-row kernels take rows of asmMin stored cells
// and more, against 2-7 dense columns. It checks the last index of every
// operand before it hands raw pointers over, because the kernels check
// nothing (the CSR-row kernels check each column index and hand a row they
// cannot finish back to the Go loop). FMA and four-lane summation change
// low-order bits against the Go loops, never NaN-ness: the rank-k updates
// return early when every multiplier is zero, before the dispatch, and the
// narrow products — dense (MatMultAdd, TMatMultAdd, DotRows) and CSR rows
// against fewer than narrowCols columns — skip nothing in either form. The element-wise maps,
// comparisons, minima and maxima are the same bits in both forms.
//
// Conventions: dense vectors are slices with an explicit offset and length so
// that rows of a row-major matrix can be addressed without sub-slicing;
// sparse rows are (values, indexes) pairs relative to a column offset.
package vector

import "math"

// asmMin is the inline cutoff: below it a kernel's call and its vector
// set-up cost more than the Go loop they replace.
const asmMin = 8

// DotProduct returns sum(a[ai+k]*b[bi+k]) for k in [0,n).
func DotProduct(a, b []float64, ai, bi, n int) float64 {
	if useAsm && n >= asmMin {
		_, _ = a[ai+n-1], b[bi+n-1]
		return dotAsm(&a[ai], &b[bi], n)
	}
	return dotProductGo(a, b, ai, bi, n)
}

func dotProductGo(a, b []float64, ai, bi, n int) float64 {
	var v0, v1, v2, v3 float64
	k := 0
	for ; k+8 <= n; k += 8 {
		v0 += a[ai+k]*b[bi+k] + a[ai+k+4]*b[bi+k+4]
		v1 += a[ai+k+1]*b[bi+k+1] + a[ai+k+5]*b[bi+k+5]
		v2 += a[ai+k+2]*b[bi+k+2] + a[ai+k+6]*b[bi+k+6]
		v3 += a[ai+k+3]*b[bi+k+3] + a[ai+k+7]*b[bi+k+7]
	}
	s := v0 + v1 + v2 + v3
	for ; k < n; k++ {
		s += a[ai+k] * b[bi+k]
	}
	return s
}

// DotProductSparse returns the inner product of a sparse row (avals over
// column indexes aix) with a dense vector b starting at bi.
func DotProductSparse(avals []float64, aix []int, b []float64, bi int) float64 {
	var s float64
	for k, j := range aix {
		s += avals[k] * b[bi+j]
	}
	return s
}

// Sum returns the sum of a[ai:ai+n].
func Sum(a []float64, ai, n int) float64 {
	if useAsm && n >= asmMin {
		_ = a[ai+n-1]
		return sumAsm(&a[ai], n)
	}
	return sumGo(a, ai, n)
}

func sumGo(a []float64, ai, n int) float64 {
	var v0, v1, v2, v3 float64
	k := 0
	for ; k+8 <= n; k += 8 {
		v0 += a[ai+k] + a[ai+k+4]
		v1 += a[ai+k+1] + a[ai+k+5]
		v2 += a[ai+k+2] + a[ai+k+6]
		v3 += a[ai+k+3] + a[ai+k+7]
	}
	s := v0 + v1 + v2 + v3
	for ; k < n; k++ {
		s += a[ai+k]
	}
	return s
}

// SumSq returns the sum of squares of a[ai:ai+n].
func SumSq(a []float64, ai, n int) float64 {
	if useAsm && n >= asmMin {
		_ = a[ai+n-1]
		return dotAsm(&a[ai], &a[ai], n)
	}
	return sumSqGo(a, ai, n)
}

func sumSqGo(a []float64, ai, n int) float64 {
	var s float64
	for k := 0; k < n; k++ {
		s += a[ai+k] * a[ai+k]
	}
	return s
}

// Min returns the minimum of a[ai:ai+n] under Min2's contract (a NaN
// anywhere makes the result NaN); +Inf for n == 0.
func Min(a []float64, ai, n int) float64 {
	if useAsm && n >= asmMin {
		_ = a[ai+n-1]
		return minAsm(&a[ai], n)
	}
	return minGo(a, ai, n)
}

func minGo(a []float64, ai, n int) float64 {
	m := math.Inf(1)
	for _, v := range a[ai : ai+n] {
		m = Min2(m, v)
	}
	return m
}

// Max returns the maximum of a[ai:ai+n] under Max2's contract; -Inf for
// n == 0.
func Max(a []float64, ai, n int) float64 {
	if useAsm && n >= asmMin {
		_ = a[ai+n-1]
		return maxAsm(&a[ai], n)
	}
	return maxGo(a, ai, n)
}

func maxGo(a []float64, ai, n int) float64 {
	m := math.Inf(-1)
	for _, v := range a[ai : ai+n] {
		m = Max2(m, v)
	}
	return m
}

// IndexMax returns the zero-based index of the maximum of a[ai:ai+n]
// (first occurrence); -1 for n == 0.
func IndexMax(a []float64, ai, n int) int {
	if n == 0 {
		return -1
	}
	ix, m := 0, a[ai]
	for k := 1; k < n; k++ {
		if a[ai+k] > m {
			ix, m = k, a[ai+k]
		}
	}
	return ix
}

// CountNnz returns the number of non-zero entries in a[ai:ai+n].
func CountNnz(a []float64, ai, n int) int {
	c := 0
	for k := 0; k < n; k++ {
		if a[ai+k] != 0 {
			c++
		}
	}
	return c
}

// MultAdd computes c[ci+k] += bval * a[ai+k] for k in [0,n)
// (the vectMultAdd primitive used by the Outer template).
func MultAdd(a []float64, bval float64, c []float64, ai, ci, n int) {
	if bval == 0 {
		return
	}
	if useAsm && n >= asmMin {
		_, _ = a[ai+n-1], c[ci+n-1]
		multAddAsm(&a[ai], bval, &c[ci], n)
		return
	}
	multAddGo(a, bval, c, ai, ci, n)
}

func multAddGo(a []float64, bval float64, c []float64, ai, ci, n int) {
	if n < 8 {
		for k := 0; k < n; k++ {
			c[ci+k] += bval * a[ai+k]
		}
		return
	}
	k := 0
	for ; k+8 <= n; k += 8 {
		c[ci+k] += bval * a[ai+k]
		c[ci+k+1] += bval * a[ai+k+1]
		c[ci+k+2] += bval * a[ai+k+2]
		c[ci+k+3] += bval * a[ai+k+3]
		c[ci+k+4] += bval * a[ai+k+4]
		c[ci+k+5] += bval * a[ai+k+5]
		c[ci+k+6] += bval * a[ai+k+6]
		c[ci+k+7] += bval * a[ai+k+7]
	}
	for ; k < n; k++ {
		c[ci+k] += bval * a[ai+k]
	}
}

// MultAdd4 computes the rank-4 update
//
//	c[ci+k] += b0*a[a0+k] + b1*a[a1+k] + b2*a[a2+k] + b3*a[a3+k]
//
// for k in [0,n). Fusing four MultAdd calls into one pass loads and stores
// each c element once per four multiplies instead of once per multiply,
// which is what makes the blocked matmult and TSMM kernels faster than
// their row-at-a-time versions even single-threaded.
func MultAdd4(a []float64, b0, b1, b2, b3 float64, c []float64, a0, a1, a2, a3, ci, n int) {
	if b0 == 0 && b1 == 0 && b2 == 0 && b3 == 0 {
		return
	}
	if useAsm && n >= asmMin {
		e := n - 1
		_, _, _, _, _ = a[a0+e], a[a1+e], a[a2+e], a[a3+e], c[ci+e]
		multAdd4Asm(&a[a0], &a[a1], &a[a2], &a[a3], b0, b1, b2, b3, &c[ci], n)
		return
	}
	multAdd4Go(a, b0, b1, b2, b3, c, a0, a1, a2, a3, ci, n)
}

func multAdd4Go(a []float64, b0, b1, b2, b3 float64, c []float64, a0, a1, a2, a3, ci, n int) {
	k := 0
	for ; k+4 <= n; k += 4 {
		s0 := b0*a[a0+k] + b1*a[a1+k] + b2*a[a2+k] + b3*a[a3+k]
		s1 := b0*a[a0+k+1] + b1*a[a1+k+1] + b2*a[a2+k+1] + b3*a[a3+k+1]
		s2 := b0*a[a0+k+2] + b1*a[a1+k+2] + b2*a[a2+k+2] + b3*a[a3+k+2]
		s3 := b0*a[a0+k+3] + b1*a[a1+k+3] + b2*a[a2+k+3] + b3*a[a3+k+3]
		c[ci+k] += s0
		c[ci+k+1] += s1
		c[ci+k+2] += s2
		c[ci+k+3] += s3
	}
	for ; k < n; k++ {
		c[ci+k] += b0*a[a0+k] + b1*a[a1+k] + b2*a[a2+k] + b3*a[a3+k]
	}
}

// MultAdd8 is the rank-8 variant of MultAdd4: eight scaled rows of a are
// accumulated into c in one pass, so each c element is loaded and stored
// once per eight multiplies. The pre-sliced row views let the compiler
// eliminate bounds checks in the hot loop.
func MultAdd8(a []float64, b0, b1, b2, b3, b4, b5, b6, b7 float64, c []float64, a0, a1, a2, a3, a4, a5, a6, a7, ci, n int) {
	if useAsm && n >= asmMin {
		e := n - 1
		_, _, _, _, _ = a[a0+e], a[a1+e], a[a2+e], a[a3+e], c[ci+e]
		_, _, _, _ = a[a4+e], a[a5+e], a[a6+e], a[a7+e]
		multAdd8Asm(&a[a0], &a[a1], &a[a2], &a[a3], &a[a4], &a[a5], &a[a6], &a[a7],
			b0, b1, b2, b3, b4, b5, b6, b7, &c[ci], n)
		return
	}
	multAdd8Go(a, b0, b1, b2, b3, b4, b5, b6, b7, c, a0, a1, a2, a3, a4, a5, a6, a7, ci, n)
}

func multAdd8Go(a []float64, b0, b1, b2, b3, b4, b5, b6, b7 float64, c []float64, a0, a1, a2, a3, a4, a5, a6, a7, ci, n int) {
	r0, r1, r2, r3 := a[a0:a0+n], a[a1:a1+n], a[a2:a2+n], a[a3:a3+n]
	r4, r5, r6, r7 := a[a4:a4+n], a[a5:a5+n], a[a6:a6+n], a[a7:a7+n]
	cc := c[ci : ci+n]
	for k := range cc {
		cc[k] += b0*r0[k] + b1*r1[k] + b2*r2[k] + b3*r3[k] +
			b4*r4[k] + b5*r5[k] + b6*r6[k] + b7*r7[k]
	}
}

// Add computes c[ci+k] += a[ai+k] for k in [0,n): MultAdd with a factor of
// 1, which is exact in either implementation (1*a is a, and fma(1, a, c)
// rounds once like c + a).
func Add(a, c []float64, ai, ci, n int) {
	MultAdd(a, 1, c, ai, ci, n)
}

// AddSparse computes c[ci+j] += avals[k] for each sparse entry (j, avals[k]).
func AddSparse(avals []float64, aix []int, c []float64, ci int) {
	for k, j := range aix {
		c[ci+j] += avals[k]
	}
}

// MatMultSparse computes c = a * B for a sparse row a over an n×m dense B.
// Narrow outputs (1 < m < narrowCols) take one kernel call per row (each
// stored cell broadcast once against its row of B), or, with fewer than
// asmMin stored cells or one column, accumulate in locals two columns per
// pass; neither skips a stored zero.
func MatMultSparse(avals []float64, aix []int, b, c []float64, bi, ci, m int) {
	if useAsm && len(aix) >= asmMin && 1 < m && m < narrowCols && csrRow(false, avals, aix, b, c, bi, ci, m) > 0 {
		return
	}
	matMultSparseGo(avals, aix, b, c, bi, ci, m)
}

func matMultSparseGo(avals []float64, aix []int, b, c []float64, bi, ci, m int) {
	if m >= narrowCols {
		for j := 0; j < m; j++ {
			c[ci+j] = 0
		}
		for k, i := range aix {
			MultAdd(b, avals[k], c, bi+i*m, ci, m)
		}
		return
	}
	j := 0
	for ; j+2 <= m; j += 2 {
		var c0, c1 float64
		for k, i := range aix {
			bb := b[bi+i*m+j : bi+i*m+j+2]
			c0 += avals[k] * bb[0]
			c1 += avals[k] * bb[1]
		}
		c[ci+j], c[ci+j+1] = c0, c1
	}
	if j < m {
		var c0 float64
		for k, i := range aix {
			c0 += avals[k] * b[bi+i*m+j]
		}
		c[ci+j] = c0
	}
}

// csrRow runs a CSR-row kernel on a row of at least asmMin stored cells
// (the callers check, so that a short row costs no call) against a dense
// operand of 1 < m < narrowCols columns (the callers check m too):
// c[ci:ci+m) = the row %*% B (B's rows m apart at b[bi]), or with outer C's
// rows (m apart at c[ci]) += each cell times b[bi:bi+m). It returns the
// cells done: all, or 0 where the Go loop takes the row, or with outer
// those before the first index outside C, which the Go loop takes from
// there.
func csrRow(outer bool, avals []float64, aix []int, b, c []float64, bi, ci, m int) int {
	_ = avals[len(aix)-1]
	var last int // the first element of the last row of the indexed operand
	if outer {
		_, last = b[bi+m-1], len(c)-ci-m
	} else {
		_, last = c[ci+m-1], len(b)-bi-m
	}
	if last < 0 {
		return 0
	}
	if outer {
		return spOuterAsm(m, &avals[0], &aix[0], len(aix), &b[bi], last, &c[ci])
	}
	n := spMatAsm(m, &avals[0], &aix[0], len(aix), &b[bi], last, &c[ci])
	if n < len(aix) {
		return 0 // the product writes nothing before its last cell
	}
	return n
}

// OuterMultAdd accumulates the outer product a (len n) ⊗ b (len m) into the
// row-major n×m matrix c (the vectOuterMultAdd primitive).
func OuterMultAdd(a, b, c []float64, ai, bi, ci, n, m int) {
	if m < 8 {
		for i := 0; i < n; i++ {
			av := a[ai+i]
			if av == 0 {
				continue
			}
			co := ci + i*m
			for j := 0; j < m; j++ {
				c[co+j] += av * b[bi+j]
			}
		}
		return
	}
	for i := 0; i < n; i++ {
		MultAdd(b, a[ai+i], c, bi, ci+i*m, m)
	}
}

// OuterMultAddSparse accumulates a sparse row (avals, aix) ⊗ b into c. For
// m < narrowCols it is the narrow product with the row as A: one kernel call
// per row from two columns, or with fewer than asmMin stored cells or one
// column the Go loop, and no stored zero skipped; wider b go through MultAdd
// per stored cell.
func OuterMultAddSparse(avals []float64, aix []int, b, c []float64, bi, ci, m int) {
	if m >= narrowCols {
		for k, i := range aix {
			MultAdd(b, avals[k], c, bi, ci+i*m, m)
		}
		return
	}
	done := 0
	if useAsm && len(aix) >= asmMin && m > 1 {
		done = csrRow(true, avals, aix, b, c, bi, ci, m)
	}
	outerMultAddSparseGo(avals[done:], aix[done:], b, c, bi, ci, m)
}

func outerMultAddSparseGo(avals []float64, aix []int, b, c []float64, bi, ci, m int) {
	bb := b[bi : bi+m]
	for k, i := range aix {
		v, cc := avals[k], c[ci+i*m:ci+i*m+m]
		for j, x := range bb {
			cc[j] += v * x
		}
	}
}
