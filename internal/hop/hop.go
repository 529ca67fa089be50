// Package hop implements SystemML-style high-level operators (HOPs) and
// their DAGs: the intermediate representation that the rewrite engine and
// the codegen fusion optimizer work on. Each statement block of a script
// compiles to one HOP DAG; sizes (dimensions and non-zero estimates)
// propagate bottom-up and drive memory estimates and execution-type
// decisions (paper §2.1).
package hop

import (
	"fmt"

	"sysml/internal/matrix"
)

// OpKind identifies the high-level operator class.
type OpKind int

// HOP kinds. OpSpoof represents a fused operator produced by the code
// generator; its Spoof field holds the compiled operator (opaque to this
// package to avoid dependency cycles).
const (
	OpData        OpKind = iota // named (transient) read
	OpLiteral                   // scalar constant
	OpDataGen                   // rand/fill/seq generation
	OpBinary                    // element-wise binary, b(+), b(*), ...
	OpUnary                     // element-wise unary, u(exp), ...
	OpAggUnary                  // unary aggregate, ua(R+), ua(C+), ua(+), ...
	OpMatMult                   // binary aggregate ba(+*): matrix multiplication
	OpTranspose                 // reorg r(t)
	OpIndex                     // right indexing rix with static bounds
	OpCBind                     // column concatenation
	OpRBind                     // row concatenation
	OpRowIndexMax               // per-row argmax (1-based)
	OpDiag                      // diagonal extract/expand
	OpCumsum                    // column-wise prefix sums
	OpSpoof                     // generated fused operator
	OpSpoofOut                  // output extractor of a multi-output fused operator
)

var kindNames = [...]string{
	"data", "lit", "datagen", "b", "u", "ua", "ba(+*)", "r(t)", "rix",
	"cbind", "rbind", "rowIndexMax", "diag", "cumsum", "spoof", "spoofOut",
}

func (k OpKind) String() string { return kindNames[k] }

// ExecType selects local in-memory or simulated-distributed execution.
type ExecType int

// Execution types.
const (
	ExecLocal ExecType = iota
	ExecDist
)

func (e ExecType) String() string {
	if e == ExecDist {
		return "DIST"
	}
	return "LOCAL"
}

// DataGenKind distinguishes data generation methods.
type DataGenKind int

// Data generation methods.
const (
	GenRand DataGenKind = iota
	GenFill
	GenSeq
)

// Hop is a single high-level operator in a DAG. Inputs order matters and
// corresponds to operand position; Parents lists all consumers (multiple
// consumers make this node a potential materialization point for fusion).
type Hop struct {
	ID     int64
	Kind   OpKind
	BinOp  matrix.BinOp
	UnOp   matrix.UnOp
	AggOp  matrix.AggOp
	AggDir matrix.AggDir

	Value float64 // OpLiteral
	Name  string  // OpData: variable name

	Gen       DataGenKind // OpDataGen
	GenArgs   []float64   // rand: sparsity, lo, hi, seed; fill: value; seq: from, to, incr
	RL, RU    int64       // OpIndex row bounds (half-open, zero-based)
	CL, CU    int64       // OpIndex col bounds
	Inputs    []*Hop
	Parents   []*Hop
	Rows      int64
	Cols      int64
	Nnz       int64 // estimated non-zeros; -1 if unknown
	ExecType  ExecType
	Spoof     any // compiled fused operator (set by codegen)
	SpoofType string
	OutIdx    int // OpSpoofOut: which output of the multi-output input

	// Cost-model predictions, annotated by codegen after optimization and
	// consumed by the runtime's cost-audit ledger (internal/obs.Audit).
	// PredSec 0 means "not annotated" and suppresses auditing.
	PredSec   float64 // predicted execution time (seconds)
	PredFlops float64 // predicted floating-point work
	PredBytes int64   // predicted IO volume (input reads + output write)

	// Compressed-input annotation (OpData hops whose bound matrix carries
	// an attached compressed form, set by the interpreter's compression
	// pass): the compressed size replaces the dense size wherever the cost
	// model charges for *reading* this node's output, and the encoding
	// summary, where the annotator gives one, feeds the EXPLAIN report.
	// 0/"" = not compressed.
	CompressedBytes int64
	CompressedDesc  string
}

// IsScalar reports whether the node produces a scalar (held as a 1×1
// matrix throughout the runtime).
func (h *Hop) IsScalar() bool { return h.Rows == 1 && h.Cols == 1 }

// IsVector reports whether the node produces a row or column vector.
func (h *Hop) IsVector() bool { return h.Rows == 1 || h.Cols == 1 }

// Sparsity returns the estimated non-zero fraction, defaulting to dense
// when the estimate is unknown.
func (h *Hop) Sparsity() float64 {
	cells := float64(h.Rows) * float64(h.Cols)
	if h.Nnz < 0 || cells == 0 {
		return 1
	}
	return float64(h.Nnz) / cells
}

// IsSparse reports whether the output is expected to be in sparse format.
func (h *Hop) IsSparse() bool {
	return h.Nnz >= 0 && h.Cols > 1 && h.Sparsity() < matrix.SparsityThreshold
}

// Cells returns the number of output cells.
func (h *Hop) Cells() int64 { return h.Rows * h.Cols }

// OutputSizeBytes estimates the in-memory output size for cost and memory
// estimation.
func (h *Hop) OutputSizeBytes() int64 {
	if h.IsSparse() {
		return h.Nnz*16 + h.Rows*8
	}
	return h.Cells() * 8
}

// InputSizeBytes sums the output sizes of all inputs.
func (h *Hop) InputSizeBytes() int64 {
	var s int64
	for _, in := range h.Inputs {
		s += in.OutputSizeBytes()
	}
	return s
}

// ReadSizeBytes returns the bytes a consumer streams to read this node's
// output: the compressed size when the bound input carries an attached
// compressed form, the dense/sparse estimate otherwise. Cost terms that
// model scanning an operand use this; terms that model materializing one
// keep OutputSizeBytes.
func (h *Hop) ReadSizeBytes() int64 {
	if h.CompressedBytes > 0 && h.CompressedBytes < h.OutputSizeBytes() {
		return h.CompressedBytes
	}
	return h.OutputSizeBytes()
}

// MemEstimate returns the operation's memory estimate: inputs + output
// (intermediates of basic operators are the output itself).
func (h *Hop) MemEstimate() int64 { return h.InputSizeBytes() + h.OutputSizeBytes() }

// String renders a compact description, e.g. "b(*)" or "ua(R+)".
func (h *Hop) String() string {
	switch h.Kind {
	case OpData:
		return fmt.Sprintf("data(%s)", h.Name)
	case OpLiteral:
		return fmt.Sprintf("lit(%g)", h.Value)
	case OpBinary:
		return fmt.Sprintf("b(%v)", h.BinOp)
	case OpUnary:
		return fmt.Sprintf("u(%v)", h.UnOp)
	case OpAggUnary:
		dir := map[matrix.AggDir]string{matrix.DirAll: "", matrix.DirRow: "R", matrix.DirCol: "C"}[h.AggDir]
		return fmt.Sprintf("ua(%s%v)", dir, h.AggOp)
	case OpSpoof:
		return fmt.Sprintf("spoof(%s)", h.SpoofType)
	case OpSpoofOut:
		return fmt.Sprintf("spoofOut[%d]", h.OutIdx)
	default:
		return h.Kind.String()
	}
}

// ReplaceInput substitutes old with new in the input list and fixes both
// parent lists. Used by rewrites and by codegen when splicing fused
// operators into the DAG.
func (h *Hop) ReplaceInput(old, new_ *Hop) {
	for i, in := range h.Inputs {
		if in == old {
			h.Inputs[i] = new_
			old.removeParent(h)
			new_.Parents = append(new_.Parents, h)
		}
	}
}

func (h *Hop) removeParent(p *Hop) {
	for i, x := range h.Parents {
		if x == p {
			h.Parents = append(h.Parents[:i], h.Parents[i+1:]...)
			return
		}
	}
}

// NumConsumers returns the number of distinct parent references (a parent
// consuming the node twice counts twice, matching materialization-point
// semantics per data dependency).
func (h *Hop) NumConsumers() int { return len(h.Parents) }
