package codegen

import (
	"sysml/internal/cplan"
	"sysml/internal/hop"
	"sysml/internal/matrix"
)

// CloseStatus is the close state of a memo table entry (§3.1).
type CloseStatus int

// Close states. Invalid entries are removed immediately by the explorer.
const (
	StatusOpen CloseStatus = iota
	StatusClosedValid
	StatusClosedInvalid
)

// Template is the open-fuse-merge-close abstraction (§3.2) separating
// template-specific fusion conditions from the DAG traversal.
type Template interface {
	Type() cplan.TemplateType
	// Open reports whether a new fused operator of this template can start
	// at h, covering its operation over materialized inputs.
	Open(h *hop.Hop) bool
	// Fuse reports whether an open fused operator at input in can expand to
	// its consumer h.
	Fuse(h, in *hop.Hop) bool
	// Merge reports whether an open fused operator at h can absorb a fused
	// operator at its input in.
	Merge(h, in *hop.Hop) bool
	// Close reports the close status of the template after h.
	Close(h *hop.Hop) CloseStatus
}

// templates is the fixed template set T (|T| = 4).
func templates(cfg *Config) []Template {
	return []Template{
		cellTemplate{},
		rowTemplate{cfg},
		maggTemplate{},
		outerTemplate{},
	}
}

// isCellOp reports whether h is a valid element-wise (cell) operation over
// matrix data: unary, or binary with matching/broadcastable operands.
func isCellOp(h *hop.Hop) bool {
	switch h.Kind {
	case hop.OpUnary:
		return !h.IsScalar()
	case hop.OpBinary:
		if h.IsScalar() {
			return false
		}
		a, b := h.Inputs[0], h.Inputs[1]
		switch {
		case a.IsScalar() || b.IsScalar():
			return true
		case a.Rows == b.Rows && a.Cols == b.Cols:
			return true
		case b.Rows == a.Rows && b.Cols == 1, b.Rows == 1 && b.Cols == a.Cols:
			return true
		case a.Cols == 1 && a.Rows == b.Rows, a.Rows == 1 && a.Cols == b.Cols:
			return true
		}
	}
	return false
}

// isValidCellAgg reports whether the aggregation can terminate a Cell
// template (sum in any direction; min/max as full aggregates).
func isValidCellAgg(h *hop.Hop) bool {
	if h.Kind != hop.OpAggUnary {
		return false
	}
	switch h.AggOp {
	case matrix.AggSum, matrix.AggSumSq:
		return true
	case matrix.AggMin, matrix.AggMax:
		return h.AggDir == matrix.DirAll
	}
	return false
}

// ---------------------------------------------------------------- Cell --

type cellTemplate struct{}

func (cellTemplate) Type() cplan.TemplateType { return cplan.TemplateCell }

func (cellTemplate) Open(h *hop.Hop) bool { return isCellOp(h) }

func (cellTemplate) Fuse(h, in *hop.Hop) bool {
	if isCellOp(h) {
		return true
	}
	if isValidCellAgg(h) {
		return true
	}
	// Inner products sum(x*y) expressed as vector-vector matmult.
	if h.Kind == hop.OpMatMult && h.IsScalar() {
		return true
	}
	return false
}

func (cellTemplate) Merge(h, in *hop.Hop) bool {
	return isCellOp(h) && !in.IsScalar()
}

func (cellTemplate) Close(h *hop.Hop) CloseStatus {
	if h.Kind == hop.OpAggUnary {
		if isValidCellAgg(h) {
			return StatusClosedValid
		}
		return StatusClosedInvalid
	}
	if h.Kind == hop.OpMatMult && h.IsScalar() {
		return StatusClosedValid
	}
	return StatusOpen
}

// ----------------------------------------------------------------- Row --

type rowTemplate struct{ cfg *Config }

func (rowTemplate) Type() cplan.TemplateType { return cplan.TemplateRow }

// violatesBlocksize checks the conditional constraint z: ncol(X) <= Bc for
// distributed Row operators, which need access to entire rows (§4.1).
func (t rowTemplate) violatesBlocksize(h *hop.Hop) bool {
	return h.ExecType == hop.ExecDist && rowMainWidth(h) > t.cfg.Exec.Blocksize
}

// rowMainWidth returns the column count of the iterated main input.
func rowMainWidth(h *hop.Hop) int64 {
	switch h.Kind {
	case hop.OpMatMult:
		a := h.Inputs[0]
		if a.Kind == hop.OpTranspose {
			return a.Inputs[0].Cols
		}
		return a.Cols
	case hop.OpTranspose:
		return h.Inputs[0].Cols
	default:
		if len(h.Inputs) > 0 {
			return h.Inputs[0].Cols
		}
	}
	return 0
}

func (t rowTemplate) Open(h *hop.Hop) bool {
	if t.violatesBlocksize(h) {
		return false
	}
	switch h.Kind {
	case hop.OpMatMult:
		a, b := h.Inputs[0], h.Inputs[1]
		// X %*% v and X %*% V with a narrow right-hand side (B1 binding).
		if a.Rows > 1 && a.Cols > 1 && b.Cols <= rowTemplateMaxCols {
			return true
		}
		return false
	case hop.OpTranspose:
		// t(X) as the left branch of t(X) %*% W (Fig. 5, group 10 R(-1)).
		in := h.Inputs[0]
		return in.Rows > 1 && in.Cols > 1
	case hop.OpCumsum:
		// The §3.2 rare exception: t(cumsum(t(X))) is a row operation; the
		// open condition looks one level down the DAG.
		return h.Inputs[0].Kind == hop.OpTranspose && h.Cols > 1
	case hop.OpAggUnary:
		if h.Inputs[0].IsVector() || h.Inputs[0].IsScalar() {
			return false
		}
		return h.AggOp == matrix.AggSum || h.AggOp == matrix.AggSumSq ||
			h.AggOp == matrix.AggMin || h.AggOp == matrix.AggMax
	case hop.OpBinary, hop.OpUnary:
		// Cell operations over matrices open Row templates too (Fig. 5
		// group 6 holds R(-1,-1)); this includes the matrix/column-vector
		// broadcasts such as X/rowSums(X).
		return isCellOp(h) && h.Rows > 1 && h.Cols > 1
	case hop.OpIndex:
		// Column-range selection over full rows (vector row indexing).
		return h.RL == 0 && h.RU == h.Inputs[0].Rows && h.Inputs[0].Cols > 1
	}
	return false
}

func (t rowTemplate) Fuse(h, in *hop.Hop) bool {
	if t.violatesBlocksize(h) {
		return false
	}
	switch h.Kind {
	case hop.OpBinary, hop.OpUnary:
		return isCellOp(h)
	case hop.OpAggUnary:
		switch h.AggOp {
		case matrix.AggSum, matrix.AggSumSq, matrix.AggMin, matrix.AggMax:
			return true
		}
		return false
	case hop.OpRowIndexMax:
		return true
	case hop.OpIndex:
		return h.RL == 0 && h.RU == in.Rows
	case hop.OpTranspose:
		// The closing transpose of t(cumsum(t(X))).
		return in.Kind == hop.OpCumsum && in.Inputs[0].Kind == hop.OpTranspose
	case hop.OpMatMult:
		a, b := h.Inputs[0], h.Inputs[1]
		// Fuse the left branch through a transpose: t(X) %*% W.
		if a == in && a.Kind == hop.OpTranspose && b.Cols <= rowTemplateMaxCols {
			return true
		}
		// Fuse the right branch W of t(X) %*% W — unless W is X: the rows
		// the operator iterates over are read, not computed in it.
		if b == in && a.Kind == hop.OpTranspose && b.Cols <= rowTemplateMaxCols {
			return a.Inputs[0] != b
		}
		// Fuse the left branch of X %*% V (V narrow, materialized).
		if a == in && a.Cols > 1 && b.Cols <= rowTemplateMaxCols {
			return true
		}
		return false
	}
	return false
}

func (rowTemplate) Merge(h, in *hop.Hop) bool {
	// Row templates absorb Cell plans over per-row compatible inputs:
	// column vectors aligned with the iterated rows or same-row matrices
	// (e.g. X^T(y ⊙ z) merging the cell plan over y ⊙ z). A transpose takes
	// the main input itself: no Row plan expresses t(f(X)) %*% W.
	if in.IsScalar() || h.Kind == hop.OpTranspose ||
		h.Kind == hop.OpMatMult && h.Inputs[0].Kind == hop.OpTranspose && h.Inputs[0].Inputs[0] == in {
		return false // the same for t(X) %*% X
	}
	rows := rowMainRows(h)
	return rows > 0 && in.Rows == rows
}

// rowMainRows returns the row count of the iterated main input of a Row
// template rooted at h (0 if undetermined).
func rowMainRows(h *hop.Hop) int64 {
	switch h.Kind {
	case hop.OpMatMult:
		a := h.Inputs[0]
		if a.Kind == hop.OpTranspose {
			return a.Inputs[0].Rows
		}
		return a.Rows
	case hop.OpTranspose:
		return h.Inputs[0].Rows
	case hop.OpAggUnary, hop.OpUnary, hop.OpIndex, hop.OpRowIndexMax:
		return h.Inputs[0].Rows
	case hop.OpBinary:
		return h.Rows // either operand may be the scalar or the row vector
	}
	return 0
}

func (rowTemplate) Close(h *hop.Hop) CloseStatus {
	if h.Kind == hop.OpTranspose && h.Inputs[0].Kind == hop.OpCumsum {
		return StatusClosedValid // t(cumsum(t(X))) ends the fused operator
	}
	switch h.Kind {
	case hop.OpAggUnary:
		// Column-wise or full aggregations close a Row template; row-wise
		// aggregations stay open (they remain per-row values).
		if h.AggDir == matrix.DirCol || h.AggDir == matrix.DirAll {
			return StatusClosedValid
		}
		return StatusOpen
	case hop.OpMatMult:
		if h.Inputs[0].Kind == hop.OpTranspose {
			return StatusClosedValid // t(X) %*% W ends the fused operator
		}
		return StatusOpen
	}
	return StatusOpen
}

// ---------------------------------------------------------------- MAgg --

type maggTemplate struct{}

func (maggTemplate) Type() cplan.TemplateType { return cplan.TemplateMAgg }

func (maggTemplate) Open(h *hop.Hop) bool {
	return h.Kind == hop.OpAggUnary && h.AggDir == matrix.DirAll &&
		(h.AggOp == matrix.AggSum || h.AggOp == matrix.AggSumSq ||
			h.AggOp == matrix.AggMin || h.AggOp == matrix.AggMax) &&
		!h.Inputs[0].IsScalar()
}

func (maggTemplate) Fuse(h, in *hop.Hop) bool { return false }

func (maggTemplate) Merge(h, in *hop.Hop) bool {
	// The aggregate absorbs the cell expression below it.
	return isCellOp(in)
}

func (maggTemplate) Close(h *hop.Hop) CloseStatus { return StatusClosedValid }

// --------------------------------------------------------------- Outer --

type outerTemplate struct{}

func (outerTemplate) Type() cplan.TemplateType { return cplan.TemplateOuter }

func (t outerTemplate) Open(h *hop.Hop) bool {
	// Outer-product-like matrix multiplication with size constraints: a
	// small common rank producing a large dense output.
	if h.Kind != hop.OpMatMult {
		return false
	}
	a, b := h.Inputs[0], h.Inputs[1]
	rank := a.Cols
	return rank >= 1 && rank <= outerMaxRank &&
		a.Rows > rank && b.Cols > rank &&
		h.Cells() >= 4*rank*rank
}

func (t outerTemplate) Fuse(h, in *hop.Hop) bool {
	switch h.Kind {
	case hop.OpBinary, hop.OpUnary:
		return isCellOp(h)
	case hop.OpAggUnary:
		return h.AggDir == matrix.DirAll && (h.AggOp == matrix.AggSum || h.AggOp == matrix.AggSumSq)
	case hop.OpTranspose:
		// Pass-through marker for the left-mm pattern t(O) %*% U.
		return true
	case hop.OpMatMult:
		a, b := h.Inputs[0], h.Inputs[1]
		// Right MM: O %*% V.
		if a == in && b.Cols <= outerMaxRank && b.Cols < in.Cols {
			return true
		}
		// Left MM: t(O) %*% U (in is the transpose marker).
		if a == in && in.Kind == hop.OpTranspose && b.Cols <= outerMaxRank {
			return true
		}
		return false
	}
	return false
}

func (outerTemplate) Merge(h, in *hop.Hop) bool {
	// Cell plans over X-shaped inputs merge into the outer template at cell
	// operations over the outer intermediate (e.g. the (X != 0) mask of
	// Expression (1)); the opening multiplication itself reads U and V rows
	// as materialized inputs.
	return isCellOp(h) && isCellOp(in) && !in.IsScalar() &&
		in.Rows == h.Rows && in.Cols == h.Cols
}

func (t outerTemplate) Close(h *hop.Hop) CloseStatus {
	switch h.Kind {
	case hop.OpAggUnary:
		return StatusClosedValid
	case hop.OpMatMult:
		// The final left/right matrix multiply (wide inner dimension over
		// the fused outer expression) ends the operator; the opening
		// outer-product multiplication (small rank) stays open.
		if h.Inputs[0].Cols > outerMaxRank {
			return StatusClosedValid
		}
		return StatusOpen
	}
	return StatusOpen
}
