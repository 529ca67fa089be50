package hop

import (
	"fmt"
	"sort"
	"sync/atomic"

	"sysml/internal/matrix"
)

// DAG is a builder and container for one statement block's HOP DAG.
// Outputs maps result variable names to their root HOPs.
type DAG struct {
	nextID  int64
	Outputs map[string]*Hop
	order   []string // deterministic output iteration order
}

// NewDAG returns an empty DAG builder.
func NewDAG() *DAG {
	dagsBuilt.Add(1)
	return &DAG{Outputs: make(map[string]*Hop)}
}

var dagsBuilt atomic.Int64

// DAGsBuilt counts the NewDAG calls of the process. Tests take its
// difference around code that must build no hops: the execution of a
// statement block that has its plan.
func DAGsBuilt() int64 { return dagsBuilt.Load() }

func (d *DAG) newHop(kind OpKind, inputs ...*Hop) *Hop {
	d.nextID++
	h := &Hop{ID: d.nextID, Kind: kind, Inputs: inputs, Nnz: -1}
	for _, in := range inputs {
		in.Parents = append(in.Parents, h)
	}
	return h
}

// Output registers a named DAG result (transient write).
func (d *DAG) Output(name string, h *Hop) {
	if _, ok := d.Outputs[name]; !ok {
		d.order = append(d.order, name)
	}
	d.Outputs[name] = h
}

// OutputNames returns the output names in registration order.
func (d *DAG) OutputNames() []string { return d.order }

// Roots returns the distinct output root HOPs in registration order.
func (d *DAG) Roots() []*Hop {
	seen := map[int64]bool{}
	var roots []*Hop
	for _, name := range d.order {
		h := d.Outputs[name]
		if !seen[h.ID] {
			seen[h.ID] = true
			roots = append(roots, h)
		}
	}
	return roots
}

// Read creates a named matrix input with known dimensions and an optional
// non-zero estimate (nnz < 0 means assume dense).
func (d *DAG) Read(name string, rows, cols, nnz int64) *Hop {
	h := d.newHop(OpData)
	h.Name, h.Rows, h.Cols, h.Nnz = name, rows, cols, nnz
	if nnz < 0 {
		h.Nnz = rows * cols
	}
	return h
}

// Lit creates a scalar literal.
func (d *DAG) Lit(v float64) *Hop {
	h := d.newHop(OpLiteral)
	h.Value, h.Rows, h.Cols, h.Nnz = v, 1, 1, 1
	if v == 0 {
		h.Nnz = 0
	}
	return h
}

// Rand creates a datagen operator producing a rows×cols random matrix.
func (d *DAG) Rand(rows, cols int64, sparsity, lo, hi float64, seed int64) *Hop {
	h := d.newHop(OpDataGen)
	h.Gen = GenRand
	h.GenArgs = []float64{sparsity, lo, hi, float64(seed)}
	h.Rows, h.Cols = rows, cols
	h.Nnz = int64(float64(rows*cols) * sparsity)
	return h
}

// FillGen creates a datagen operator producing a constant matrix.
func (d *DAG) FillGen(rows, cols int64, value float64) *Hop {
	h := d.newHop(OpDataGen)
	h.Gen = GenFill
	h.GenArgs = []float64{value}
	h.Rows, h.Cols = rows, cols
	h.Nnz = rows * cols
	if value == 0 {
		h.Nnz = 0
	}
	return h
}

// Binary creates an element-wise binary operator with broadcast-aware size
// propagation.
func (d *DAG) Binary(op matrix.BinOp, a, b *Hop) *Hop {
	h := d.newHop(OpBinary, a, b)
	h.BinOp = op
	// Output shape: the non-scalar, non-vector-broadcast side.
	switch {
	case a.IsScalar():
		h.Rows, h.Cols = b.Rows, b.Cols
	case b.IsScalar():
		h.Rows, h.Cols = a.Rows, a.Cols
	case a.Rows == b.Rows && a.Cols == b.Cols:
		h.Rows, h.Cols = a.Rows, a.Cols
	case b.Cols == 1 && b.Rows == a.Rows, b.Rows == 1 && b.Cols == a.Cols:
		h.Rows, h.Cols = a.Rows, a.Cols
	case a.Cols == 1 && a.Rows == b.Rows, a.Rows == 1 && a.Cols == b.Cols:
		h.Rows, h.Cols = b.Rows, b.Cols
	default:
		panic(fmt.Sprintf("hop: incompatible binary shapes %dx%d %v %dx%d",
			a.Rows, a.Cols, op, b.Rows, b.Cols))
	}
	h.Nnz = estimateBinaryNnz(op, a, b, h)
	return h
}

// Unary creates an element-wise unary operator.
func (d *DAG) Unary(op matrix.UnOp, a *Hop) *Hop {
	h := d.newHop(OpUnary, a)
	h.UnOp = op
	h.Rows, h.Cols = a.Rows, a.Cols
	if op.SparseSafe() {
		h.Nnz = a.Nnz
	} else {
		h.Nnz = h.Cells()
	}
	return h
}

// Agg creates a unary aggregate (sum/min/max/mean, full/row/col).
func (d *DAG) Agg(op matrix.AggOp, dir matrix.AggDir, a *Hop) *Hop {
	h := d.newHop(OpAggUnary, a)
	h.AggOp, h.AggDir = op, dir
	switch dir {
	case matrix.DirAll:
		h.Rows, h.Cols = 1, 1
	case matrix.DirRow:
		h.Rows, h.Cols = a.Rows, 1
	case matrix.DirCol:
		h.Rows, h.Cols = 1, a.Cols
	}
	h.Nnz = h.Cells()
	return h
}

// Sum is shorthand for a full sum aggregate.
func (d *DAG) Sum(a *Hop) *Hop { return d.Agg(matrix.AggSum, matrix.DirAll, a) }

// RowSums is shorthand for a row-wise sum aggregate.
func (d *DAG) RowSums(a *Hop) *Hop { return d.Agg(matrix.AggSum, matrix.DirRow, a) }

// ColSums is shorthand for a column-wise sum aggregate.
func (d *DAG) ColSums(a *Hop) *Hop { return d.Agg(matrix.AggSum, matrix.DirCol, a) }

// MatMult creates a matrix multiplication (ba(+*)).
func (d *DAG) MatMult(a, b *Hop) *Hop {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("hop: matmult shape mismatch %dx%d x %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	h := d.newHop(OpMatMult, a, b)
	h.Rows, h.Cols = a.Rows, b.Cols
	// SystemML-style sparsity estimate: sp = 1-(1-spA*spB)^k.
	spA, spB := a.Sparsity(), b.Sparsity()
	sp := 1 - pow1m(spA*spB, a.Cols)
	h.Nnz = int64(sp * float64(h.Cells()))
	return h
}

func pow1m(p float64, k int64) float64 {
	// (1-p)^k without math.Pow edge cases for large k.
	r := 1.0
	base := 1 - p
	if base <= 0 {
		return 0
	}
	for e := k; e > 0; e >>= 1 {
		if e&1 == 1 {
			r *= base
		}
		base *= base
		if r == 0 {
			return 0
		}
	}
	return r
}

// Transpose creates a reorg transpose.
func (d *DAG) Transpose(a *Hop) *Hop {
	h := d.newHop(OpTranspose, a)
	h.Rows, h.Cols = a.Cols, a.Rows
	h.Nnz = a.Nnz
	return h
}

// Index creates a right-indexing operator with static half-open zero-based
// bounds.
func (d *DAG) Index(a *Hop, rl, ru, cl, cu int64) *Hop {
	if rl < 0 || cl < 0 || ru > a.Rows || cu > a.Cols || rl >= ru || cl >= cu {
		panic(fmt.Sprintf("hop: invalid index [%d:%d,%d:%d] of %dx%d", rl, ru, cl, cu, a.Rows, a.Cols))
	}
	h := d.newHop(OpIndex, a)
	h.RL, h.RU, h.CL, h.CU = rl, ru, cl, cu
	h.Rows, h.Cols = ru-rl, cu-cl
	h.Nnz = int64(a.Sparsity() * float64(h.Cells()))
	return h
}

// CBindOp concatenates two inputs horizontally.
func (d *DAG) CBindOp(a, b *Hop) *Hop {
	h := d.newHop(OpCBind, a, b)
	h.Rows, h.Cols = a.Rows, a.Cols+b.Cols
	h.Nnz = nnzOrDense(a) + nnzOrDense(b)
	return h
}

// RBindOp concatenates two inputs vertically.
func (d *DAG) RBindOp(a, b *Hop) *Hop {
	h := d.newHop(OpRBind, a, b)
	h.Rows, h.Cols = a.Rows+b.Rows, a.Cols
	h.Nnz = nnzOrDense(a) + nnzOrDense(b)
	return h
}

// RowIndexMaxOp creates a per-row argmax operator.
func (d *DAG) RowIndexMaxOp(a *Hop) *Hop {
	h := d.newHop(OpRowIndexMax, a)
	h.Rows, h.Cols = a.Rows, 1
	h.Nnz = a.Rows
	return h
}

// DiagOp creates a diagonal extract/expand operator.
func (d *DAG) DiagOp(a *Hop) *Hop {
	h := d.newHop(OpDiag, a)
	if a.Cols == 1 {
		h.Rows, h.Cols = a.Rows, a.Rows
		h.Nnz = a.Nnz
	} else {
		h.Rows, h.Cols = a.Rows, 1
		h.Nnz = a.Rows
	}
	return h
}

// CumsumOp creates a column-wise prefix-sum operator.
func (d *DAG) CumsumOp(a *Hop) *Hop {
	h := d.newHop(OpCumsum, a)
	h.Rows, h.Cols = a.Rows, a.Cols
	h.Nnz = h.Cells()
	return h
}

// NewSpoof wraps a compiled fused operator as a HOP with explicit output
// dimensions, consuming the given inputs.
func (d *DAG) NewSpoof(spoofType string, op any, rows, cols, nnz int64, inputs ...*Hop) *Hop {
	h := d.newHop(OpSpoof, inputs...)
	h.SpoofType = spoofType
	h.Spoof = op
	h.Rows, h.Cols, h.Nnz = rows, cols, nnz
	if nnz < 0 {
		h.Nnz = rows * cols
	}
	return h
}

// SpoofOut extracts output k of a multi-output fused operator (horizontal
// template): the spoof hop computes every sibling output in one pass and
// SpoofOut nodes hand each one to its consumers with its own dimensions.
func (d *DAG) SpoofOut(spoof *Hop, k int, rows, cols, nnz int64) *Hop {
	h := d.newHop(OpSpoofOut, spoof)
	h.OutIdx = k
	h.Rows, h.Cols, h.Nnz = rows, cols, nnz
	if nnz < 0 {
		h.Nnz = rows * cols
	}
	return h
}

func nnzOrDense(h *Hop) int64 {
	if h.Nnz < 0 {
		return h.Cells()
	}
	return h.Nnz
}

func estimateBinaryNnz(op matrix.BinOp, a, b, out *Hop) int64 {
	cells := float64(out.Cells())
	spA, spB := a.Sparsity(), b.Sparsity()
	switch op {
	case matrix.BinMul, matrix.BinAnd:
		return int64(spA * spB * cells)
	case matrix.BinAdd, matrix.BinSub, matrix.BinOr:
		sp := spA + spB - spA*spB
		return int64(sp * cells)
	default:
		if op.SparseSafe() {
			sp := spA + spB - spA*spB
			return int64(sp * cells)
		}
		return out.Cells()
	}
}

// TopoOrder returns all HOPs reachable from the given roots in topological
// order (inputs before consumers), deterministically by node ID.
func TopoOrder(roots []*Hop) []*Hop {
	var order []*Hop
	state := map[int64]int{} // 0 unvisited, 1 in progress, 2 done
	var visit func(h *Hop)
	visit = func(h *Hop) {
		switch state[h.ID] {
		case 1:
			panic("hop: cycle detected in DAG")
		case 2:
			return
		}
		state[h.ID] = 1
		for _, in := range h.Inputs {
			visit(in)
		}
		state[h.ID] = 2
		order = append(order, h)
	}
	sorted := append([]*Hop(nil), roots...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for _, r := range sorted {
		visit(r)
	}
	return order
}
