package codegen_test

import (
	"fmt"
	"math"

	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/runtime"
)

// The whole-DAG reference evaluator: what the generated DAGs of
// randomDAGOf mean, computed with textbook loops over dense []float64. It
// shares no code with what it checks — no sparse format, no pool, no par,
// no vector kernel, no matrix operator — so a defect in a kernel that Base
// and every fusing mode run alike shows as a difference from it. It follows
// the numeric contract of internal/dml/oracle_test.go: every element of a
// dense operand is multiplied, so a zero meets an Inf or NaN as NaN, and
// only the stored cells of a CSR matrix take part in a product. Min and max
// propagate NaN, and sign(NaN) is 0, as the system defines them.

// refVal is a value of the reference evaluator: rows×cols cells in row-major
// order. csr marks the leaves stored as CSR (and their transposes): their
// zero cells are implicit and meet nothing in a product.
type refVal struct {
	rows, cols int
	v          []float64
	csr        bool
}

func (r refVal) at(i, j int) float64 {
	if r.rows == 1 {
		i = 0
	}
	if r.cols == 1 {
		j = 0
	}
	return r.v[i*r.cols+j] // a row or column vector, or a scalar, broadcasts
}

// refEval evaluates every output of d over env.
func refEval(d *hop.DAG, env runtime.Env) map[string]*matrix.Matrix {
	memo := map[*hop.Hop]refVal{}
	var eval func(h *hop.Hop) refVal
	eval = func(h *hop.Hop) refVal {
		if r, ok := memo[h]; ok {
			return r
		}
		var in []refVal
		for _, x := range h.Inputs {
			in = append(in, eval(x))
		}
		rows, cols := int(h.Rows), int(h.Cols)
		out := refVal{rows: rows, cols: cols, v: make([]float64, rows*cols)}
		switch h.Kind {
		case hop.OpData:
			m := env[h.Name]
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					out.v[i*cols+j] = m.At(i, j)
				}
			}
			out.csr = m.IsSparse()
		case hop.OpLiteral:
			out.v[0] = h.Value
		case hop.OpBinary:
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					out.v[i*cols+j] = refBinary(h.BinOp, in[0].at(i, j), in[1].at(i, j))
				}
			}
		case hop.OpUnary:
			for k, x := range in[0].v {
				out.v[k] = refUnary(h.UnOp, x)
			}
		case hop.OpAggUnary:
			a, identity := in[0], map[matrix.AggOp]float64{matrix.AggMin: math.Inf(1), matrix.AggMax: math.Inf(-1)}[h.AggOp]
			for k := range out.v {
				out.v[k] = identity
			}
			for i := 0; i < a.rows; i++ {
				for j := 0; j < a.cols; j++ {
					k := 0
					switch h.AggDir {
					case matrix.DirRow:
						k = i
					case matrix.DirCol:
						k = j
					}
					out.v[k] = refAgg(h.AggOp, out.v[k], a.v[i*a.cols+j])
				}
			}
		case hop.OpMatMult:
			a, b := in[0], in[1]
			for i := 0; i < a.rows; i++ {
				for j := 0; j < b.cols; j++ {
					s := 0.0
					for k := 0; k < a.cols; k++ {
						x, y := a.v[i*a.cols+k], b.v[k*b.cols+j]
						if x == 0 && a.csr || y == 0 && b.csr {
							continue // an implicit zero
						}
						s += x * y
					}
					out.v[i*cols+j] = s
				}
			}
		case hop.OpTranspose:
			a := in[0]
			for i := 0; i < a.rows; i++ {
				for j := 0; j < a.cols; j++ {
					out.v[j*a.rows+i] = a.v[i*a.cols+j]
				}
			}
			out.csr = a.csr
		default:
			panic(fmt.Sprintf("reference: no %v", h.Kind))
		}
		memo[h] = out
		return out
	}
	res := map[string]*matrix.Matrix{}
	for _, name := range d.OutputNames() {
		r := eval(d.Outputs[name])
		m := matrix.NewDense(r.rows, r.cols)
		copy(m.Dense(), r.v)
		res[name] = m
	}
	return res
}

func refBinary(op matrix.BinOp, x, y float64) float64 {
	switch op {
	case matrix.BinAdd:
		return x + y
	case matrix.BinMul:
		return x * y
	case matrix.BinMin:
		return refMin(x, y)
	case matrix.BinMax:
		return -refMin(-x, -y)
	}
	panic(fmt.Sprintf("reference: no binary %v", op))
}

// refMin is min with NaN propagated from either side.
func refMin(x, y float64) float64 {
	switch {
	case x != x || y != y:
		return math.NaN()
	case y < x:
		return y
	}
	return x
}

func refUnary(op matrix.UnOp, x float64) float64 {
	switch op {
	case matrix.UnAbs:
		return math.Abs(x)
	case matrix.UnSqrt:
		return math.Sqrt(x)
	case matrix.UnSigmoid:
		return 1 / (1 + math.Exp(-x))
	case matrix.UnSign:
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		}
		return 0
	}
	panic(fmt.Sprintf("reference: no unary %v", op))
}

// refAgg folds cell x into acc, which starts at the fold's identity.
func refAgg(op matrix.AggOp, acc, x float64) float64 {
	switch op {
	case matrix.AggSum:
		return acc + x
	case matrix.AggSumSq:
		return acc + x*x
	case matrix.AggMin:
		return refMin(acc, x)
	case matrix.AggMax:
		return -refMin(-acc, -x)
	}
	panic(fmt.Sprintf("reference: no aggregate %v", op))
}
