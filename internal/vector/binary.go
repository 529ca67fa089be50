package vector

import "math"

// Op is an element-wise binary operation c = x op y. The operations and
// their order are those of matrix.BinOp, which converts to it.
type Op uint8

// The element-wise binary operations.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpPow
	OpMin
	OpMax
	OpEq
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	numOps
)

// Apply evaluates the operation on two scalars: what every kernel below
// computes per element, bit for bit, with one exception — a vector divided
// by a scalar (Scalar, ScalarRows with the scalar on the right) is
// multiplied by the scalar's reciprocal.
func (op Op) Apply(x, y float64) float64 {
	switch op {
	case OpAdd:
		return x + y
	case OpSub:
		return x - y
	case OpMul:
		return x * y
	case OpDiv:
		return x / y
	case OpPow:
		if y == 2 {
			return x * x
		}
		return math.Pow(x, y)
	case OpMin:
		return Min2(x, y)
	case OpMax:
		return Max2(x, y)
	case OpEq:
		return b2f(x == y)
	case OpNeq:
		return b2f(x != y)
	case OpLt:
		return b2f(x < y)
	case OpLe:
		return b2f(x <= y)
	case OpGt:
		return b2f(x > y)
	case OpGe:
		return b2f(x >= y)
	case OpAnd:
		return b2f(x != 0 && y != 0)
	case OpOr:
		return b2f(x != 0 || y != 0)
	}
	panic("vector: unknown binary op")
}

// b2f is 1 for true and 0 for false, without a branch: the bits of 1.0
// under a mask the condition sets.
func b2f(b bool) float64 {
	var i uint64
	if b {
		i = 1
	}
	return math.Float64frombits(-i & 0x3FF0000000000000)
}

// Min2 is the minimum with SystemML's (Java's Math.min) contract, the one
// every min/max of this package follows: NaN if either operand is NaN —
// also against an infinity, where math.Min lets -Inf win — and -0 below +0.
func Min2(x, y float64) float64 {
	switch {
	case x != x || y != y:
		return math.NaN()
	case x < y:
		return x
	case y < x:
		return y
	}
	// Equal: the same bits, or zeros of either sign.
	return math.Float64frombits(math.Float64bits(x) | math.Float64bits(y))
}

// Max2 is the maximum under Min2's contract: NaN propagates, +0 above -0.
func Max2(x, y float64) float64 {
	switch {
	case x != x || y != y:
		return math.NaN()
	case x > y:
		return x
	case y > x:
		return y
	}
	return math.Float64frombits(math.Float64bits(x) & math.Float64bits(y))
}

// mirror returns the operation with its operands exchanged, for the
// operations that have one: x op y == y mirror(op) x.
func (op Op) mirror() (Op, bool) {
	switch op {
	case OpAdd, OpMul, OpMin, OpMax, OpEq, OpNeq, OpAnd, OpOr:
		return op, true
	case OpLt:
		return OpGt, true
	case OpLe:
		return OpGe, true
	case OpGt:
		return OpLt, true
	case OpGe:
		return OpLe, true
	}
	return op, false
}

// The operations that have a tile kernel: two tiles (vvOps; > and >= are <
// and <= with the operands exchanged), a tile and a scalar per row (vsOps),
// the scalar on the left where the operation cannot be mirrored (svOps).
const (
	vvOps = 1<<OpAdd | 1<<OpSub | 1<<OpMul | 1<<OpDiv | 1<<OpMin | 1<<OpMax | 1<<OpEq | 1<<OpNeq | 1<<OpLt | 1<<OpLe
	vsOps = vvOps | 1<<OpGt | 1<<OpGe
	svOps = 1<<OpSub | 1<<OpDiv
)

// tailMask is the VMASKMOVPD mask of the n%4 elements after the last full
// group of four.
func tailMask(n int) *[4]int64 { return (*[4]int64)(laneMask[4-n&3:]) }

// Binary writes c[ci+k] = a[ai+k] op b[bi+k] for k in [0,n): BinaryRows for
// one row, without its shape logic (the skeleton's min/max column fold calls
// it per row of a tile).
func Binary(op Op, a, b, c []float64, ai, bi, ci, n int) {
	if n <= 0 {
		return
	}
	if op == OpGt || op == OpGe {
		op, _ = op.mirror()
		a, ai, b, bi = b, bi, a, ai
	}
	if useAsm && n >= asmMin && vvOps>>op&1 != 0 {
		_, _, _ = a[ai+n-1], b[bi+n-1], c[ci+n-1]
		tileVV(int(op), &a[ai], n, &b[bi], n, &c[ci], 1, n, tailMask(n))
		return
	}
	binaryRowsGo(op, a, ai, n, b, bi, n, c, ci, 1, n)
}

// BinaryRows writes the rows×w tile c[ci+t*w+j] = a[ai+t*astride+j] op
// b[bi+t*bstride+j]: one call per tile of a Row program, whose operands are
// tiles of their own (stride w), views of wider rows, or one row repeated
// (stride 0).
func BinaryRows(op Op, a []float64, ai, astride int, b []float64, bi, bstride int, c []float64, ci, rows, w int) {
	if rows <= 0 || w <= 0 {
		return
	}
	if astride == w && bstride == w {
		rows, w = 1, rows*w
	}
	if astride < 0 || bstride < 0 {
		panic("vector: negative stride")
	}
	_, _, _ = a[ai+(rows-1)*astride+w-1], b[bi+(rows-1)*bstride+w-1], c[ci+rows*w-1]
	if op == OpGt || op == OpGe {
		op, _ = op.mirror()
		a, ai, astride, b, bi, bstride = b, bi, bstride, a, ai, astride
	}
	if useAsm && rows*w >= asmMin && vvOps>>op&1 != 0 {
		tileVV(int(op), &a[ai], astride, &b[bi], bstride, &c[ci], rows, w, tailMask(w))
		return
	}
	binaryRowsGo(op, a, ai, astride, b, bi, bstride, c, ci, rows, w)
}

func binaryRowsGo(op Op, a []float64, ai, astride int, b []float64, bi, bstride int, c []float64, ci, rows, w int) {
	for t := 0; t < rows; t++ {
		x, y, z := a[ai+t*astride:][:w], b[bi+t*bstride:][:w], c[ci+t*w:][:w]
		switch op {
		case OpAdd:
			for j, v := range x {
				z[j] = v + y[j]
			}
		case OpSub:
			for j, v := range x {
				z[j] = v - y[j]
			}
		case OpMul:
			for j, v := range x {
				z[j] = v * y[j]
			}
		case OpDiv:
			for j, v := range x {
				z[j] = v / y[j]
			}
		case OpEq:
			for j, v := range x {
				z[j] = b2f(v == y[j])
			}
		case OpNeq:
			for j, v := range x {
				z[j] = b2f(v != y[j])
			}
		case OpLt:
			for j, v := range x {
				z[j] = b2f(v < y[j])
			}
		case OpLe:
			for j, v := range x {
				z[j] = b2f(v <= y[j])
			}
		case OpGt:
			for j, v := range x {
				z[j] = b2f(v > y[j])
			}
		case OpGe:
			for j, v := range x {
				z[j] = b2f(v >= y[j])
			}
		default:
			for j, v := range x {
				z[j] = op.Apply(v, y[j])
			}
		}
	}
}

// Scalar writes c[ci+k] = a[ai+k] op s for k in [0,n), or s op a[ai+k]
// with left set: ScalarRows for one row and one scalar, without its shape
// logic.
func Scalar(op Op, left bool, a []float64, s float64, c []float64, ai, ci, n int) {
	if n <= 0 {
		return
	}
	op, left = orient(op, left)
	if k, ok := scalarKernel(op, left); useAsm && n >= asmMin && ok {
		_, _ = a[ai+n-1], c[ci+n-1]
		tileVS(k, &a[ai], n, &s, 0, &c[ci], 1, n, tailMask(n))
		return
	}
	sv := [1]float64{s}
	scalarRowsGo(op, left, a, ai, n, sv[:], 0, 0, c, ci, 1, n)
}

// ScalarRows writes the rows×w tile c[ci+t*w+j] = a[ai+t*astride+j] op
// s[si+t*sstride], or s op a with left set: row t of a against its own
// scalar (sstride 1, a scalar register of a Row program or a column
// vector) or all rows against one (sstride 0). a / s multiplies by 1/s.
func ScalarRows(op Op, left bool, a []float64, ai, astride int, s []float64, si, sstride int, c []float64, ci, rows, w int) {
	if rows <= 0 || w <= 0 {
		return
	}
	switch {
	case astride == w && (sstride == 0 || rows == 1):
		rows, w = 1, rows*w
	case w == 1 && astride == 1 && sstride == 1 && (op != OpDiv || left):
		// A column against a column is the flat kernel of two vectors
		// (but for a / s, which is not a division).
		if left {
			BinaryRows(op, s, si, rows, a, ai, rows, c, ci, 1, rows)
		} else {
			BinaryRows(op, a, ai, rows, s, si, rows, c, ci, 1, rows)
		}
		return
	}
	if astride < 0 || sstride < 0 {
		panic("vector: negative stride")
	}
	_, _, _ = a[ai+(rows-1)*astride+w-1], s[si+(rows-1)*sstride], c[ci+rows*w-1]
	op, left = orient(op, left)
	if k, ok := scalarKernel(op, left); useAsm && rows*w >= asmMin && ok {
		tileVS(k, &a[ai], astride, &s[si], sstride, &c[ci], rows, w, tailMask(w))
		return
	}
	scalarRowsGo(op, left, a, ai, astride, s, si, sstride, c, ci, rows, w)
}

// orient turns s op a into a op' s where the operation has a mirror; left
// stays set for s - a, s / a and s ^ a.
func orient(op Op, left bool) (Op, bool) {
	if left {
		if m, ok := op.mirror(); ok {
			return m, false
		}
	}
	return op, left
}

// scalarKernel is tileVS's index of a op s, or of s op a with left set (left
// is only set for operations that mirror could not turn around).
func scalarKernel(op Op, left bool) (int, bool) {
	if left {
		return int(numOps + op), svOps>>op&1 != 0
	}
	return int(op), vsOps>>op&1 != 0
}

// scalarRowsGo takes a mirrored operation with left cleared: left is set
// for s - a, s / a and s ^ a only.
func scalarRowsGo(op Op, left bool, a []float64, ai, astride int, s []float64, si, sstride int, c []float64, ci, rows, w int) {
	for t := 0; t < rows; t++ {
		x, z, v := a[ai+t*astride:][:w], c[ci+t*w:][:w], s[si+t*sstride]
		switch {
		case op == OpAdd:
			for j, u := range x {
				z[j] = u + v
			}
		case op == OpSub && left:
			for j, u := range x {
				z[j] = v - u
			}
		case op == OpSub:
			for j, u := range x {
				z[j] = u - v
			}
		case op == OpMul:
			for j, u := range x {
				z[j] = u * v
			}
		case op == OpDiv && left:
			for j, u := range x {
				z[j] = v / u
			}
		case op == OpDiv:
			r := 1 / v
			for j, u := range x {
				z[j] = u * r
			}
		case op == OpPow && !left && v == 2:
			for j, u := range x {
				z[j] = u * u
			}
		case op == OpEq:
			for j, u := range x {
				z[j] = b2f(u == v)
			}
		case op == OpNeq:
			for j, u := range x {
				z[j] = b2f(u != v)
			}
		case op == OpLt:
			for j, u := range x {
				z[j] = b2f(u < v)
			}
		case op == OpLe:
			for j, u := range x {
				z[j] = b2f(u <= v)
			}
		case op == OpGt:
			for j, u := range x {
				z[j] = b2f(u > v)
			}
		case op == OpGe:
			for j, u := range x {
				z[j] = b2f(u >= v)
			}
		case left:
			for j, u := range x {
				z[j] = op.Apply(v, u)
			}
		default:
			for j, u := range x {
				z[j] = op.Apply(u, v)
			}
		}
	}
}
