// Package matrix implements the block matrix runtime underlying the fusion
// framework: row-major dense and CSR sparse representations with
// multi-threaded element-wise, aggregation, reorganization, and matrix
// multiplication kernels. It corresponds to SystemML's MatrixBlock runtime.
package matrix

import (
	"fmt"
	"math"
	"sync/atomic"
)

// SparsityThreshold is the fraction of non-zeros below which operations
// prefer the sparse representation (SystemML uses a comparable threshold).
const SparsityThreshold = 0.4

// CSR is a compressed sparse row representation. RowPtr has Rows+1 entries;
// the k-th nonzero of row i is (ColIdx[k], Values[k]) for k in
// [RowPtr[i], RowPtr[i+1]).
type CSR struct {
	RowPtr []int
	ColIdx []int
	Values []float64
}

// Row returns the nonzero values and column indexes of row i.
func (s *CSR) Row(i int) (vals []float64, cols []int) {
	lo, hi := s.RowPtr[i], s.RowPtr[i+1]
	return s.Values[lo:hi], s.ColIdx[lo:hi]
}

// Nnz returns the total number of stored nonzeros.
func (s *CSR) Nnz() int { return len(s.Values) }

// Matrix is a two-dimensional FP64 matrix in either dense (row-major) or
// sparse (CSR) representation. Exactly one of the two storages is non-nil.
// The zero value is not usable; construct via NewDense, NewSparse, Rand, etc.
type Matrix struct {
	Rows, Cols int
	dense      []float64
	sparse     *CSR
	nnzCache   int                 // 0 unknown, -2 scanned-zero, >0 count; Set invalidates
	pool       *BufPool            // pool the dense storage came from (Release recycles it there)
	compressed atomic.Pointer[any] // see CompressState
}

// CompressState returns what internal/compress last stored on this matrix:
// nil (never considered), a decline verdict, or an attached compressed
// form. The state lives here, not in a registry of compress, so that it
// lasts exactly as long as the matrix: nothing has to be bounded or
// evicted, no dead matrix is kept reachable by a map key, and one engine's
// attachments cannot push out another's. The value is opaque to this
// package (matrix does not import compress) and compress is its only
// writer. Both methods are one atomic operation (sessions sharing a bound
// input set and read it concurrently); Release clears the state with the
// storage.
func (m *Matrix) CompressState() any {
	if s := m.compressed.Load(); s != nil {
		return *s
	}
	return nil
}

// SetCompressState replaces the state; nil removes it.
func (m *Matrix) SetCompressState(s any) {
	if s == nil {
		m.compressed.Store(nil)
		return
	}
	m.compressed.Store(&s)
}

// NewDense returns an all-zero dense rows×cols matrix. Storage is drawn
// from the process-wide DefaultPool when a matching buffer is available;
// Release returns it there. Engine-scoped allocation goes through
// BufPool.NewDense (or a Ctx).
func NewDense(rows, cols int) *Matrix { return DefaultPool.NewDense(rows, cols) }

// NewDenseUninit returns a rows×cols dense matrix with arbitrary cell
// values (no zeroing of recycled storage). Only for producers that
// overwrite every cell before the matrix escapes.
func NewDenseUninit(rows, cols int) *Matrix { return DefaultPool.NewDenseUninit(rows, cols) }

// NewDenseData wraps an existing row-major backing slice (not copied).
// len(data) must equal rows*cols.
func NewDenseData(rows, cols int, data []float64) *Matrix {
	checkDims(rows, cols)
	if len(data) != rows*cols {
		panic(fmt.Sprintf("matrix: data length %d != %d x %d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, dense: data}
}

// NewSparseCSR wraps an existing CSR structure (not copied).
func NewSparseCSR(rows, cols int, csr *CSR) *Matrix {
	checkDims(rows, cols)
	if len(csr.RowPtr) != rows+1 {
		panic(fmt.Sprintf("matrix: RowPtr length %d != rows+1 (%d)", len(csr.RowPtr), rows+1))
	}
	return &Matrix{Rows: rows, Cols: cols, sparse: csr}
}

// NewScalar returns a 1×1 dense matrix holding v; scalars flow through the
// runtime as 1×1 matrices.
func NewScalar(v float64) *Matrix {
	return &Matrix{Rows: 1, Cols: 1, dense: []float64{v}}
}

func checkDims(rows, cols int) {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", rows, cols))
	}
}

// IsSparse reports whether the matrix is in CSR representation.
func (m *Matrix) IsSparse() bool { return m.sparse != nil }

// Dense returns the row-major dense backing slice, or nil if sparse.
func (m *Matrix) Dense() []float64 { return m.dense }

// Sparse returns the CSR structure, or nil if dense.
func (m *Matrix) Sparse() *CSR { return m.sparse }

// Scalar returns the single value of a 1×1 matrix.
func (m *Matrix) Scalar() float64 {
	if m.Rows != 1 || m.Cols != 1 {
		panic(fmt.Sprintf("matrix: Scalar() on %dx%d matrix", m.Rows, m.Cols))
	}
	return m.At(0, 0)
}

// At returns element (i, j). Sparse access costs a binary search.
func (m *Matrix) At(i, j int) float64 {
	if m.dense != nil {
		return m.dense[i*m.Cols+j]
	}
	vals, cols := m.sparse.Row(i)
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := (lo + hi) / 2
		if cols[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cols) && cols[lo] == j {
		return vals[lo]
	}
	return 0
}

// Set assigns element (i, j). A sparse matrix is densified first; Set is
// intended for construction and tests, not hot loops.
func (m *Matrix) Set(i, j int, v float64) {
	if m.dense == nil {
		d := m.ToDense()
		m.dense, m.sparse, m.pool = d.dense, nil, d.pool
	}
	m.nnzCache = 0 // invalidate
	m.dense[i*m.Cols+j] = v
}

// Nnz counts the non-zero values (cached after the first scan).
func (m *Matrix) Nnz() int {
	if m.nnzCache > 0 || m.nnzScanned() {
		return m.countNnzCached()
	}
	m.nnzCache = m.countNnz()
	if m.nnzCache == 0 {
		m.nnzCache = -2 // distinguish "scanned, zero" from "unknown"
	}
	return m.countNnzCached()
}

func (m *Matrix) nnzScanned() bool { return m.nnzCache == -2 }

func (m *Matrix) countNnzCached() int {
	if m.nnzCache == -2 {
		return 0
	}
	return m.nnzCache
}

func (m *Matrix) countNnz() int {
	if m.sparse != nil {
		n := 0
		for _, v := range m.sparse.Values {
			if v != 0 {
				n++
			}
		}
		return n
	}
	n := 0
	for _, v := range m.dense {
		if v != 0 {
			n++
		}
	}
	return n
}

// Sparsity returns nnz / (rows*cols).
func (m *Matrix) Sparsity() float64 {
	return float64(m.Nnz()) / (float64(m.Rows) * float64(m.Cols))
}

// SizeBytes returns the in-memory size of the matrix payload, used by the
// cost model and memory estimates.
func (m *Matrix) SizeBytes() int64 {
	if m.sparse != nil {
		return int64(len(m.sparse.Values))*16 + int64(len(m.sparse.RowPtr))*8
	}
	return int64(len(m.dense)) * 8
}

// ToDense returns a dense copy (or the receiver itself when already dense).
func (m *Matrix) ToDense() *Matrix {
	if m.dense != nil {
		return m
	}
	out := NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		vals, cols := m.sparse.Row(i)
		off := i * m.Cols
		for k, j := range cols {
			out.dense[off+j] = vals[k]
		}
	}
	return out
}

// ToSparse returns a CSR copy (or the receiver itself when already sparse).
func (m *Matrix) ToSparse() *Matrix {
	if m.sparse != nil {
		return m
	}
	nnz := m.Nnz()
	csr := &CSR{
		RowPtr: make([]int, m.Rows+1),
		ColIdx: make([]int, 0, nnz),
		Values: make([]float64, 0, nnz),
	}
	for i := 0; i < m.Rows; i++ {
		off := i * m.Cols
		for j := 0; j < m.Cols; j++ {
			if v := m.dense[off+j]; v != 0 {
				csr.ColIdx = append(csr.ColIdx, j)
				csr.Values = append(csr.Values, v)
			}
		}
		csr.RowPtr[i+1] = len(csr.Values)
	}
	return NewSparseCSR(m.Rows, m.Cols, csr)
}

// InPreferredFormat converts to sparse when the matrix is below the
// sparsity threshold (and has enough columns for CSR to pay off), dense
// otherwise.
func (m *Matrix) InPreferredFormat() *Matrix {
	sp := m.Sparsity()
	if sp < SparsityThreshold && m.Cols > 1 {
		return m.ToSparse()
	}
	return m.ToDense()
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{Rows: m.Rows, Cols: m.Cols}
	if m.dense != nil {
		out.dense = append([]float64(nil), m.dense...)
	} else {
		out.sparse = &CSR{
			RowPtr: append([]int(nil), m.sparse.RowPtr...),
			ColIdx: append([]int(nil), m.sparse.ColIdx...),
			Values: append([]float64(nil), m.sparse.Values...),
		}
	}
	return out
}

// EqualsApprox reports element-wise equality within eps, across
// representations.
func (m *Matrix) EqualsApprox(o *Matrix, eps float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			a, b := m.At(i, j), o.At(i, j)
			if math.IsNaN(a) && math.IsNaN(b) {
				continue
			}
			d := math.Abs(a - b)
			if d > eps && d > eps*math.Max(math.Abs(a), math.Abs(b)) {
				return false
			}
		}
	}
	return true
}

// String renders small matrices fully and large ones by shape only.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		kind := "dense"
		if m.IsSparse() {
			kind = "sparse"
		}
		return fmt.Sprintf("Matrix(%dx%d, %s, nnz=%d)", m.Rows, m.Cols, kind, m.Nnz())
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
