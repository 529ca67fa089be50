package vector

import "math"

// Unary write primitives: c[ci+k] = f(a[ai+k]).

// ExpWrite computes c = exp(a). With the kernel, each result is a function
// of its argument alone — the same bits at any offset, length or lane —
// within 2 ulp of math.Exp, and math.Exp itself for NaN, infinities and
// arguments beyond ±708 (overflow, underflow, denormal results).
func ExpWrite(a, c []float64, ai, ci, n int) { laneMap(expAsm, math.Exp, a, c, ai, ci, n) }

// LogWrite computes c = ln(a): ExpWrite's contract, math.Log itself for
// everything but positive normal arguments.
func LogWrite(a, c []float64, ai, ci, n int) { laneMap(logAsm, math.Log, a, c, ai, ci, n) }

// SigmoidWrite computes c = 1/(1+exp(-a)) over ExpWrite's exponential.
func SigmoidWrite(a, c []float64, ai, ci, n int) { laneMap(sigmoidAsm, sigmoid, a, c, ai, ci, n) }

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// laneKernel maps n elements, four lanes at a time, the last group under
// tail. It stops after the first group that holds arguments outside its
// domain: group is that group's index and bad its lanes, whose arguments it
// has copied to c in place of results. bad == 0 means all n are done.
type laneKernel func(a, c *float64, n int, tail *[4]int64) (group, bad int)

// laneMap is c = f(a) through a kernel for every n, so that no result
// depends on where a caller's chunk ends; the lanes a kernel declines are
// redone by f.
func laneMap(kernel laneKernel, f func(float64) float64, a, c []float64, ai, ci, n int) {
	if !useAsm || n <= 0 {
		for k := 0; k < n; k++ {
			c[ci+k] = f(a[ai+k])
		}
		return
	}
	_, _ = a[ai+n-1], c[ci+n-1]
	for i := 0; i < n; {
		g, bad := kernel(&a[ai+i], &c[ci+i], n-i, tailMask(n-i))
		if bad == 0 {
			return
		}
		for k := ci + i + g; bad != 0; k, bad = k+1, bad>>1 {
			if bad&1 != 0 {
				c[k] = f(c[k])
			}
		}
		i += g + 4
	}
}

// splat4 lays constants out four lanes wide, as the kernels load them.
func splat4(v ...float64) [][4]float64 {
	t := make([][4]float64, len(v))
	for i, x := range v {
		t[i] = [4]float64{x, x, x, x}
	}
	return t
}

var (
	// expTab: |x| mask, the domain bound, then the constants of
	// exp(x) = 2^k (1 + P(r/16))^16, r = x - k ln2 (Shibata's method, the
	// one math.Exp follows on amd64).
	expTab = splat4(math.Float64frombits(1<<63-1), 708, math.Log2E,
		0.69314718055966295651160180568695068359375, 0.28235290563031577122588448175013436025525412068e-12,
		0.0625, 2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1, 2,
		math.Copysign(0, -1))
	// logTab: the domain [smallest normal, +Inf), the mantissa mask, the
	// exponent conversion, then fdlibm's constants.
	logTab = splat4(0x1p-1022, math.Inf(1), math.Float64frombits(1<<52-1), 0.5,
		0x1p52, 0x1p52+1022, math.Sqrt2/2, 1, 2,
		1.479819860511658591e-01, 1.818357216161805012e-01, 2.857142874366239149e-01, 6.666666666666735130e-01,
		1.531383769920937332e-01, 2.222219843214978396e-01, 3.999999999940941908e-01,
		1.90821492927058770002e-10, 6.93147180369123816490e-01)
)

// SqrtWrite computes c = sqrt(a).
func SqrtWrite(a, c []float64, ai, ci, n int) {
	for k := 0; k < n; k++ {
		c[ci+k] = math.Sqrt(a[ai+k])
	}
}

// AbsWrite computes c = |a|.
func AbsWrite(a, c []float64, ai, ci, n int) {
	for k := 0; k < n; k++ {
		c[ci+k] = math.Abs(a[ai+k])
	}
}

// SignWrite computes c = sign(a) in {-1, 0, 1}.
func SignWrite(a, c []float64, ai, ci, n int) {
	for k := 0; k < n; k++ {
		switch {
		case a[ai+k] > 0:
			c[ci+k] = 1
		case a[ai+k] < 0:
			c[ci+k] = -1
		default:
			c[ci+k] = 0
		}
	}
}

// RoundWrite computes c = round(a) (half away from zero).
func RoundWrite(a, c []float64, ai, ci, n int) {
	for k := 0; k < n; k++ {
		c[ci+k] = math.Round(a[ai+k])
	}
}

// FloorWrite computes c = floor(a).
func FloorWrite(a, c []float64, ai, ci, n int) {
	for k := 0; k < n; k++ {
		c[ci+k] = math.Floor(a[ai+k])
	}
}

// CeilWrite computes c = ceil(a).
func CeilWrite(a, c []float64, ai, ci, n int) {
	for k := 0; k < n; k++ {
		c[ci+k] = math.Ceil(a[ai+k])
	}
}

// NegWrite computes c = -a.
func NegWrite(a, c []float64, ai, ci, n int) {
	for k := 0; k < n; k++ {
		c[ci+k] = -a[ai+k]
	}
}

// Pow2Write computes c = a*a.
func Pow2Write(a, c []float64, ai, ci, n int) {
	for k := 0; k < n; k++ {
		c[ci+k] = a[ai+k] * a[ai+k]
	}
}

// CopyWrite copies a into c.
func CopyWrite(a, c []float64, ai, ci, n int) {
	copy(c[ci:ci+n], a[ai:ai+n])
}

// Fill sets c[ci:ci+n] to v.
func Fill(c []float64, v float64, ci, n int) {
	for k := 0; k < n; k++ {
		c[ci+k] = v
	}
}

// CumsumWrite computes the running prefix sum of a into c.
func CumsumWrite(a, c []float64, ai, ci, n int) {
	var s float64
	for k := 0; k < n; k++ {
		s += a[ai+k]
		c[ci+k] = s
	}
}
