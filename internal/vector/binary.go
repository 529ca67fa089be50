package vector

import "math"

// Write-variant binary primitives: c[ci+k] = a[ai+k] OP b[bi+k].

// MultWrite computes c = a * b element-wise (8-fold unrolled like the
// vectMultWrite primitive discussed in paper Fig. 10).
func MultWrite(a, b, c []float64, ai, bi, ci, n int) {
	if useAsm && n >= asmMin {
		e := n - 1
		_, _, _ = a[ai+e], b[bi+e], c[ci+e]
		multWriteAsm(&a[ai], &b[bi], &c[ci], n)
		return
	}
	multWriteGo(a, b, c, ai, bi, ci, n)
}

func multWriteGo(a, b, c []float64, ai, bi, ci, n int) {
	k := 0
	for ; k+8 <= n; k += 8 {
		c[ci+k] = a[ai+k] * b[bi+k]
		c[ci+k+1] = a[ai+k+1] * b[bi+k+1]
		c[ci+k+2] = a[ai+k+2] * b[bi+k+2]
		c[ci+k+3] = a[ai+k+3] * b[bi+k+3]
		c[ci+k+4] = a[ai+k+4] * b[bi+k+4]
		c[ci+k+5] = a[ai+k+5] * b[bi+k+5]
		c[ci+k+6] = a[ai+k+6] * b[bi+k+6]
		c[ci+k+7] = a[ai+k+7] * b[bi+k+7]
	}
	for ; k < n; k++ {
		c[ci+k] = a[ai+k] * b[bi+k]
	}
}

// AddWrite computes c = a + b element-wise.
func AddWrite(a, b, c []float64, ai, bi, ci, n int) {
	if useAsm && n >= asmMin {
		e := n - 1
		_, _, _ = a[ai+e], b[bi+e], c[ci+e]
		addWriteAsm(&a[ai], &b[bi], &c[ci], n)
		return
	}
	addWriteGo(a, b, c, ai, bi, ci, n)
}

func addWriteGo(a, b, c []float64, ai, bi, ci, n int) {
	for k := 0; k < n; k++ {
		c[ci+k] = a[ai+k] + b[bi+k]
	}
}

// MinusWrite computes c = a - b element-wise (vectMinus).
func MinusWrite(a, b, c []float64, ai, bi, ci, n int) {
	if useAsm && n >= asmMin {
		e := n - 1
		_, _, _ = a[ai+e], b[bi+e], c[ci+e]
		minusWriteAsm(&a[ai], &b[bi], &c[ci], n)
		return
	}
	minusWriteGo(a, b, c, ai, bi, ci, n)
}

func minusWriteGo(a, b, c []float64, ai, bi, ci, n int) {
	for k := 0; k < n; k++ {
		c[ci+k] = a[ai+k] - b[bi+k]
	}
}

// DivWrite computes c = a / b element-wise.
func DivWrite(a, b, c []float64, ai, bi, ci, n int) {
	for k := 0; k < n; k++ {
		c[ci+k] = a[ai+k] / b[bi+k]
	}
}

// MinWrite computes c = min(a, b) element-wise.
func MinWrite(a, b, c []float64, ai, bi, ci, n int) {
	for k := 0; k < n; k++ {
		c[ci+k] = math.Min(a[ai+k], b[bi+k])
	}
}

// MaxWrite computes c = max(a, b) element-wise.
func MaxWrite(a, b, c []float64, ai, bi, ci, n int) {
	for k := 0; k < n; k++ {
		c[ci+k] = math.Max(a[ai+k], b[bi+k])
	}
}

// Scalar-variant write primitives: c[ci+k] = a[ai+k] OP s.

// MultScalarWrite computes c = a * s.
func MultScalarWrite(a []float64, s float64, c []float64, ai, ci, n int) {
	if useAsm && n >= asmMin {
		_, _ = a[ai+n-1], c[ci+n-1]
		multScalarAsm(&a[ai], s, &c[ci], n)
		return
	}
	multScalarWriteGo(a, s, c, ai, ci, n)
}

func multScalarWriteGo(a []float64, s float64, c []float64, ai, ci, n int) {
	for k := 0; k < n; k++ {
		c[ci+k] = a[ai+k] * s
	}
}

// AddScalarWrite computes c = a + s.
func AddScalarWrite(a []float64, s float64, c []float64, ai, ci, n int) {
	if useAsm && n >= asmMin {
		_, _ = a[ai+n-1], c[ci+n-1]
		addScalarAsm(&a[ai], s, &c[ci], n)
		return
	}
	addScalarWriteGo(a, s, c, ai, ci, n)
}

func addScalarWriteGo(a []float64, s float64, c []float64, ai, ci, n int) {
	for k := 0; k < n; k++ {
		c[ci+k] = a[ai+k] + s
	}
}

// MinusScalarWrite computes c = a - s, as a + (-s): the same IEEE operation.
func MinusScalarWrite(a []float64, s float64, c []float64, ai, ci, n int) {
	AddScalarWrite(a, -s, c, ai, ci, n)
}

// ScalarMinusWrite computes c = s - a.
func ScalarMinusWrite(s float64, a, c []float64, ai, ci, n int) {
	if useAsm && n >= asmMin {
		_, _ = a[ai+n-1], c[ci+n-1]
		scalarMinusAsm(&a[ai], s, &c[ci], n)
		return
	}
	scalarMinusWriteGo(s, a, c, ai, ci, n)
}

func scalarMinusWriteGo(s float64, a, c []float64, ai, ci, n int) {
	for k := 0; k < n; k++ {
		c[ci+k] = s - a[ai+k]
	}
}

// DivScalarWrite computes c = a / s.
func DivScalarWrite(a []float64, s float64, c []float64, ai, ci, n int) {
	MultScalarWrite(a, 1/s, c, ai, ci, n)
}

// ScalarDivWrite computes c = s / a.
func ScalarDivWrite(s float64, a, c []float64, ai, ci, n int) {
	for k := 0; k < n; k++ {
		c[ci+k] = s / a[ai+k]
	}
}

// PowScalarWrite computes c = a ^ s.
func PowScalarWrite(a []float64, s float64, c []float64, ai, ci, n int) {
	if s == 2 {
		for k := 0; k < n; k++ {
			c[ci+k] = a[ai+k] * a[ai+k]
		}
		return
	}
	for k := 0; k < n; k++ {
		c[ci+k] = math.Pow(a[ai+k], s)
	}
}

// GreaterScalarWrite computes c = (a > s) ? 1 : 0.
func GreaterScalarWrite(a []float64, s float64, c []float64, ai, ci, n int) {
	for k := 0; k < n; k++ {
		if a[ai+k] > s {
			c[ci+k] = 1
		} else {
			c[ci+k] = 0
		}
	}
}

// NotEqualScalarWrite computes c = (a != s) ? 1 : 0.
func NotEqualScalarWrite(a []float64, s float64, c []float64, ai, ci, n int) {
	for k := 0; k < n; k++ {
		if a[ai+k] != s {
			c[ci+k] = 1
		} else {
			c[ci+k] = 0
		}
	}
}
