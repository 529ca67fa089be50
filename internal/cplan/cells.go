package cplan

import (
	"sysml/internal/matrix"
	"sysml/internal/vector"
)

// Cells is one worker's binding of a cell body's leaf registers: for the
// span of cells the executor is at, where register 0 (the main input), the
// matrix sides and the Outer dot come from. A binding only loads — view
// where the cells of the span are contiguous in the input, fill (copy,
// repeat, densify, gather) where they are not — and the body that then runs
// is the same under all of them:
//
//	view  dense main, dense main-shaped sides: every register aliases its
//	      input at the span's flat offset (Flat)
//	fill  row and column sides, mis-shaped or sparse sides, a sparse main
//	      that is not sparse-safe, the Outer dot: spans are blocks of whole
//	      rows (or a column range of one), a register that is not contiguous
//	      in its input is written — a column side as its row's value
//	      repeated, a row side as a copy of its column range per row, a
//	      sparse row densified
//	nnz   sparse-safe iteration (Nnz): the span is a range of main's stored
//	      cells, register 0 a view of the CSR values, every side gathered at
//	      the cells' (row, column)
//	dict  the main input is a column group's dictionary, one tuple per row
//	      (Flat: the sides of such a body are scalars); the executor weighs
//	      the tuples by their counts
type Cells struct {
	Ctx  *Ctx // sides (row cursors are per worker) and pre-read scalars
	Main *matrix.Matrix
	Flat bool
	Nnz  bool

	// U, V and Rank are the Outer factors behind the dot leaf: cell (i, j)
	// reads U_i·V_j.
	U, V []float64
	Rank int
	// Swap marks a main input that is the transpose of the plan's (Outer's
	// left product): cell (i, j) reads the plan's sides at (j, i). U and V
	// arrive swapped, sparse sides read cell by cell transposed.
	Swap bool

	// The span: main rows [i, i+nr) × columns [c, c+nc), or under Nnz the
	// stored cells [k0, k1) of rows [i, i+nr).
	i, nr, c, nc, k0, k1 int
}

// NewCells binds main and the side inputs; sparse vectors among the sides
// are densified (a broadcast side is read once per row or column).
func NewCells(main *matrix.Matrix, sides []*matrix.Matrix) *Cells {
	ctx := NewCtx(sides)
	for i, m := range sides {
		if m.IsSparse() && (m.Rows == 1 || m.Cols == 1) {
			ctx.Sides[i] = NewSideView(m.ToDense())
		}
	}
	return &Cells{Ctx: ctx, Main: main}
}

// Clone returns an independent binding for another worker thread.
func (s *Cells) Clone() *Cells {
	c := *s
	c.Ctx = s.Ctx.Clone()
	return &c
}

// seg returns the cells of row t of the span: their column indexes under
// Nnz, otherwise nil for the n columns from s.c on.
func (s *Cells) seg(t int) (idx []int, n int) {
	if !s.Nnz {
		return nil, s.nc
	}
	csr := s.Main.Sparse()
	lo, hi := max(csr.RowPtr[s.i+t], s.k0), min(csr.RowPtr[s.i+t+1], s.k1)
	return csr.ColIdx[lo:hi], hi - lo
}

// sparseMain binds register 0 to a sparse main input: the stored values
// under Nnz, the rows of the span densified otherwise.
func (s *Cells) sparseMain(b *CellVecBuf) ([]float64, int) {
	csr := s.Main.Sparse()
	if s.Nnz {
		return csr.Values, s.k0
	}
	d := b.reg(0)[:s.nr*s.nc]
	clear(d)
	for t := 0; t < s.nr; t++ {
		vals, cix := csr.Row(s.i + t)
		for k, j := range cix {
			if j >= s.c && j < s.c+s.nc {
				d[t*s.nc+j-s.c] = vals[k]
			}
		}
	}
	return d, 0
}

// side binds register reg to a matrix side whose value at cell (i, j) is
// data[i*ri + j*cj]: a side read cell by cell has ri = its width and cj = 1,
// a column side 1 and 0, a row side 0 and 1. The register is a view when
// the span's cells are contiguous in the side and filled row by row
// otherwise.
func (s *Cells) side(sv *SideView, ri, cj int, b *CellVecBuf, reg int) ([]float64, int) {
	if s.Swap {
		ri, cj = cj, ri
	}
	if sv.dense != nil && !s.Nnz && cj == 1 && (s.nr == 1 || ri == s.nc) {
		return sv.dense, s.i*ri + s.c
	}
	return s.fill(sv, ri, cj, b.reg(reg)), 0
}

// fill writes the side's values at the cells of the span to own. The row
// loop is here, around plain loops, because the rows of a narrow matrix are
// a few cells each: a call per row would cost more than filling it.
func (s *Cells) fill(sv *SideView, ri, cj int, own []float64) []float64 {
	d, idx, n := sv.dense, []int(nil), s.nc
	for t, o := 0, 0; t < s.nr; t, o = t+1, o+n {
		if s.Nnz {
			idx, n = s.seg(t)
		}
		i, out := s.i+t, own[o:o+n]
		switch base := i*ri + s.c*cj; {
		case d == nil: // a sparse side read cell by cell: the row cursor
			for k := range out {
				j := s.c + k
				if idx != nil {
					j = idx[k]
				}
				out[k] = sv.Value(i, j)
			}
		case cj == 0:
			for k := range out {
				out[k] = d[base]
			}
		case idx != nil:
			for k, j := range idx {
				out[k] = d[base+j*cj]
			}
		case cj == 1 && n > 8:
			copy(out, d[base:])
		default:
			for k := range out {
				out[k] = d[base+k*cj]
			}
		}
	}
	return own
}

// dots fills own with U_i·V_j for the cells of the span.
func (s *Cells) dots(own []float64) []float64 {
	r := s.Rank
	for t, o := 0, 0; t < s.nr; t++ {
		idx, n := s.seg(t)
		for k := 0; k < n; k++ {
			j := s.c + k
			if idx != nil {
				j = idx[k]
			}
			own[o+k] = vector.DotProduct(s.U, s.V, (s.i+t)*r, j*r, r)
		}
		o += n
	}
	return own
}
