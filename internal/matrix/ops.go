package matrix

import (
	"math"

	"sysml/internal/vector"
)

// BinOp identifies an element-wise binary operation. It is vector.Op under
// the names scripts and plans use: Kernel converts, and the dense
// element-wise paths of this package and the executor of fused bodies
// (cplan.Program.Exec) hand it to the same vector kernels (vector.Binary,
// Scalar, BinaryRows, ScalarRows).
type BinOp int

// Supported element-wise binary operations.
const (
	BinAdd = BinOp(vector.OpAdd)
	BinSub = BinOp(vector.OpSub)
	BinMul = BinOp(vector.OpMul)
	BinDiv = BinOp(vector.OpDiv)
	BinPow = BinOp(vector.OpPow)
	BinMin = BinOp(vector.OpMin)
	BinMax = BinOp(vector.OpMax)
	BinEq  = BinOp(vector.OpEq)
	BinNeq = BinOp(vector.OpNeq)
	BinLt  = BinOp(vector.OpLt)
	BinLe  = BinOp(vector.OpLe)
	BinGt  = BinOp(vector.OpGt)
	BinGe  = BinOp(vector.OpGe)
	BinAnd = BinOp(vector.OpAnd)
	BinOr  = BinOp(vector.OpOr)
)

var binNames = [...]string{BinAdd: "+", BinSub: "-", BinMul: "*", BinDiv: "/", BinPow: "^", BinMin: "min", BinMax: "max",
	BinEq: "==", BinNeq: "!=", BinLt: "<", BinLe: "<=", BinGt: ">", BinGe: ">=", BinAnd: "&", BinOr: "|"}

func (op BinOp) String() string { return binNames[op] }

// Kernel is the operation as the vector kernels name it.
func (op BinOp) Kernel() vector.Op { return vector.Op(op) }

// Apply evaluates the binary operation on two scalars (min and max
// propagate NaN, see vector.Min2).
func (op BinOp) Apply(a, b float64) float64 { return op.Kernel().Apply(a, b) }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// SparseSafe reports whether op(0, 0) == 0, i.e. whether the operation
// preserves sparsity when both sides are sparse.
func (op BinOp) SparseSafe() bool {
	switch op {
	case BinAdd, BinSub, BinMul, BinNeq, BinLt, BinGt, BinAnd, BinOr, BinMin, BinMax:
		return true
	}
	return false
}

// SparseSafeLeft reports whether op(0, y) == 0 for all y, i.e. whether a
// sparse left input drives the output sparsity regardless of the right side
// ("sparse driver" in the paper, e.g. multiply).
func (op BinOp) SparseSafeLeft() bool {
	switch op {
	case BinMul, BinAnd:
		return true
	}
	return false
}

// UnOp identifies an element-wise unary operation.
type UnOp int

// Supported element-wise unary operations.
const (
	UnExp UnOp = iota
	UnLog
	UnSqrt
	UnAbs
	UnSign
	UnRound
	UnFloor
	UnCeil
	UnNeg
	UnSigmoid
	UnNot
	UnRecip // 1/x
)

var unNames = [...]string{"exp", "log", "sqrt", "abs", "sign", "round", "floor", "ceil", "neg", "sigmoid", "!", "recip"}

func (op UnOp) String() string { return unNames[op] }

// Apply evaluates the unary operation on a scalar.
func (op UnOp) Apply(a float64) float64 {
	switch op {
	case UnExp:
		return math.Exp(a)
	case UnLog:
		return math.Log(a)
	case UnSqrt:
		return math.Sqrt(a)
	case UnAbs:
		return math.Abs(a)
	case UnSign:
		switch {
		case a > 0:
			return 1
		case a < 0:
			return -1
		}
		return 0
	case UnRound:
		return math.Round(a)
	case UnFloor:
		return math.Floor(a)
	case UnCeil:
		return math.Ceil(a)
	case UnNeg:
		return -a
	case UnSigmoid:
		return 1 / (1 + math.Exp(-a))
	case UnNot:
		return b2f(a == 0)
	case UnRecip:
		return 1 / a
	}
	panic("matrix: unknown unary op")
}

// Write computes c[ci+k] = op(a[ai+k]) for k in [0,n): the one dispatch of
// unary operations onto the vector primitives, for this package's dense
// path and the fused bodies alike.
func (op UnOp) Write(a, c []float64, ai, ci, n int) {
	switch op {
	case UnExp:
		vector.ExpWrite(a, c, ai, ci, n)
	case UnLog:
		vector.LogWrite(a, c, ai, ci, n)
	case UnSqrt:
		vector.SqrtWrite(a, c, ai, ci, n)
	case UnAbs:
		vector.AbsWrite(a, c, ai, ci, n)
	case UnSign:
		vector.SignWrite(a, c, ai, ci, n)
	case UnRound:
		vector.RoundWrite(a, c, ai, ci, n)
	case UnFloor:
		vector.FloorWrite(a, c, ai, ci, n)
	case UnCeil:
		vector.CeilWrite(a, c, ai, ci, n)
	case UnNeg:
		vector.NegWrite(a, c, ai, ci, n)
	case UnSigmoid:
		vector.SigmoidWrite(a, c, ai, ci, n)
	default:
		for k := 0; k < n; k++ {
			c[ci+k] = op.Apply(a[ai+k])
		}
	}
}

// SparseSafe reports whether f(0) == 0, allowing sparse outputs for sparse
// inputs.
func (op UnOp) SparseSafe() bool {
	switch op {
	case UnSqrt, UnAbs, UnSign, UnRound, UnFloor, UnCeil, UnNeg, UnLog:
		// Note: log(0) = -Inf, so UnLog is NOT sparse safe.
		return op != UnLog
	}
	return false
}

// AggOp identifies an aggregation function.
type AggOp int

// Supported aggregation functions.
const (
	AggSum AggOp = iota
	AggMin
	AggMax
	AggMean
	AggSumSq
)

var aggNames = [...]string{"sum", "min", "max", "mean", "sumsq"}

func (op AggOp) String() string { return aggNames[op] }

// Rows writes d[t] = op(a[ai+t*astride : +w]) for t in [0, rows): the row
// aggregation of a dense block, shared with the executor of fused bodies.
func (op AggOp) Rows(a []float64, ai, astride int, d []float64, rows, w int) {
	switch op {
	case AggSum, AggMean:
		vector.RowReduce(vector.ReduceSum, a, ai, astride, d, rows, w)
		if op == AggMean {
			for t := range d[:rows] {
				d[t] /= float64(w)
			}
		}
	case AggSumSq:
		vector.RowReduce(vector.ReduceSumSq, a, ai, astride, d, rows, w)
	case AggMin:
		vector.RowReduce(vector.ReduceMin, a, ai, astride, d, rows, w)
	case AggMax:
		vector.RowReduce(vector.ReduceMax, a, ai, astride, d, rows, w)
	default:
		panic("matrix: unsupported row aggregation")
	}
}

// AggDir identifies the aggregation direction.
type AggDir int

// Aggregation directions: full (scalar), per-row (column vector result),
// per-column (row vector result).
const (
	DirAll AggDir = iota
	DirRow
	DirCol
)

var dirNames = [...]string{"all", "row", "col"}

func (d AggDir) String() string { return dirNames[d] }
