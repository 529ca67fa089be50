package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"sysml/internal/matrix"
)

// Tolerances of the correctness checks: generated operators against naive
// loops, and Gen against Base runs (fused chains change accumulation
// order; the tolerance matches internal/algos/algos_test.go).
const (
	tolFused = 1e-9
	tolAlgo  = 1e-4
)

// mat is a dense row-major matrix value used for references and checks.
type mat struct {
	Rows, Cols int
	Data       []float64
}

func scalarMat(v float64) mat { return mat{1, 1, []float64{v}} }

// matOf views m as a mat without copying when m is dense; the view is
// valid until the owning session runs again.
func matOf(m *matrix.Matrix) mat {
	if d := m.Dense(); d != nil {
		return mat{m.Rows, m.Cols, d}
	}
	return copyMat(m)
}

// copyMat returns a dense copy of m that outlives its session.
func copyMat(m *matrix.Matrix) mat {
	out := mat{m.Rows, m.Cols, make([]float64, m.Rows*m.Cols)}
	if d := m.Dense(); d != nil {
		copy(out.Data, d)
		return out
	}
	csr := m.Sparse()
	for i := 0; i < m.Rows; i++ {
		vals, cols := csr.Row(i)
		for k, j := range cols {
			out.Data[i*m.Cols+j] = vals[k]
		}
	}
	return out
}

// closeTo reports |got-want| <= tol*max(1,|got|,|want|); NaN and Inf never
// pass.
func closeTo(got, want, tol float64) bool {
	if math.IsNaN(got) || math.IsInf(got, 0) || math.IsNaN(want) || math.IsInf(want, 0) {
		return false
	}
	scale := math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
	return math.Abs(got-want) <= tol*scale
}

// sampleAbove is the output size from which a stride > 1 applies.
const sampleAbove = 1 << 17

// compare checks got against want cell by cell. With stride > 1 only every
// stride-th cell of an output of at least sampleAbove cells is compared
// (between the passes that check every cell).
func compare(name string, got, want mat, tol float64, stride int) error {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if stride < 1 || len(want.Data) < sampleAbove {
		stride = 1
	}
	for k := 0; k < len(want.Data); k += stride {
		if !closeTo(got.Data[k], want.Data[k], tol) {
			return fmt.Errorf("%s[%d,%d] = %.12g, want %.12g (tol %g)",
				name, k/want.Cols, k%want.Cols, got.Data[k], want.Data[k], tol)
		}
	}
	return nil
}

// compareAll checks every output named in want.
func compareAll(got, want map[string]mat, tol float64, stride int) error {
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("output %s missing", name)
		}
		if err := compare(name, g, w, tol, stride); err != nil {
			return err
		}
	}
	return nil
}

// ksum is a Neumaier compensated accumulator: the naive references sum
// 1e7 terms sequentially and must not be the less accurate side.
type ksum struct{ s, c float64 }

func (k *ksum) add(v float64) {
	t := k.s + v
	if math.Abs(k.s) >= math.Abs(v) {
		k.c += (k.s - t) + v
	} else {
		k.c += (v - t) + k.s
	}
	k.s = t
}

func (k *ksum) value() float64 { return k.s + k.c }

// forEachNZ calls fn for every stored cell of x (every cell when dense).
func forEachNZ(x *matrix.Matrix, fn func(i, j int, v float64)) {
	if d := x.Dense(); d != nil {
		for i := 0; i < x.Rows; i++ {
			for j := 0; j < x.Cols; j++ {
				fn(i, j, d[i*x.Cols+j])
			}
		}
		return
	}
	csr := x.Sparse()
	for i := 0; i < x.Rows; i++ {
		vals, cols := csr.Row(i)
		for k, j := range cols {
			fn(i, j, vals[k])
		}
	}
}

// refCell is sum(X*Y*Z) with dense Y, Z.
func refCell(x, y, z *matrix.Matrix) float64 {
	yd, zd := y.Dense(), z.Dense()
	var acc ksum
	forEachNZ(x, func(i, j int, v float64) {
		acc.add(v * yd[i*x.Cols+j] * zd[i*x.Cols+j])
	})
	return acc.value()
}

// refMAgg is the pair sum(X*Y), sum(X*Z).
func refMAgg(x, y, z *matrix.Matrix) (float64, float64) {
	yd, zd := y.Dense(), z.Dense()
	var a, b ksum
	forEachNZ(x, func(i, j int, v float64) {
		a.add(v * yd[i*x.Cols+j])
		b.add(v * zd[i*x.Cols+j])
	})
	return a.value(), b.value()
}

// refRowMM is t(X) %*% (X %*% V) for a dense V with k columns (k = 1 is
// the matrix-vector chain).
func refRowMM(x, v *matrix.Matrix) mat {
	k := v.Cols
	vd := v.Dense()
	out := mat{x.Cols, k, make([]float64, x.Cols*k)}
	rowDot := make([]float64, k)
	var rowVals []float64
	var rowCols []int
	flush := func() {
		for c := 0; c < k; c++ {
			rowDot[c] = 0
		}
		for n, j := range rowCols {
			for c := 0; c < k; c++ {
				rowDot[c] += rowVals[n] * vd[j*k+c]
			}
		}
		for n, j := range rowCols {
			for c := 0; c < k; c++ {
				out.Data[j*k+c] += rowVals[n] * rowDot[c]
			}
		}
		rowVals, rowCols = rowVals[:0], rowCols[:0]
	}
	cur := 0
	forEachNZ(x, func(i, j int, val float64) {
		if i != cur {
			flush()
			cur = i
		}
		rowVals = append(rowVals, val)
		rowCols = append(rowCols, j)
	})
	flush()
	return out
}

// refOuter is sum(X * log(U %*% t(V) + 1e-15)) over X's stored cells.
func refOuter(x, u, v *matrix.Matrix) float64 {
	ud, vd := u.Dense(), v.Dense()
	r := u.Cols
	var acc ksum
	forEachNZ(x, func(i, j int, val float64) {
		var dot float64
		for c := 0; c < r; c++ {
			dot += ud[i*r+c] * vd[j*r+c]
		}
		acc.add(val * math.Log(dot+1e-15))
	})
	return acc.value()
}

// refHFuse is C = colSums(X); s = sum(X^2); Y = X*3+1 over a dense X.
func refHFuse(x *matrix.Matrix) map[string]mat {
	d := x.Dense()
	cols := make([]ksum, x.Cols)
	var sq ksum
	y := mat{x.Rows, x.Cols, make([]float64, len(d))}
	for k, v := range d {
		cols[k%x.Cols].add(v)
		sq.add(v * v)
		y.Data[k] = v*3 + 1
	}
	c := mat{1, x.Cols, make([]float64, x.Cols)}
	for j := range cols {
		c.Data[j] = cols[j].value()
	}
	return map[string]mat{"C": c, "s": scalarMat(sq.value()), "Y": y}
}

// refSumSq is sum(X^2).
func refSumSq(x *matrix.Matrix) float64 {
	var acc ksum
	forEachNZ(x, func(_, _ int, v float64) { acc.add(v * v) })
	return acc.value()
}

// refALSLoss recomputes the ALS-CG objective from the returned factors
// with a loop over X's non-zeros: sum over (i,j) with x_ij != 0 of
// (x_ij - u_i . v_j)^2, which is what the script's
// sum(X^2) - 2*sum(X*(U%*%t(V))) + sum((X!=0)*(U%*%t(V))^2) expands to.
func refALSLoss(x *matrix.Matrix, u, v mat) float64 {
	r := u.Cols
	var acc ksum
	forEachNZ(x, func(i, j int, val float64) {
		if val == 0 {
			return
		}
		var dot float64
		for c := 0; c < r; c++ {
			dot += u.Data[i*r+c] * v.Data[j*r+c]
		}
		e := val - dot
		acc.add(e * e)
	})
	return acc.value()
}

// checkALS verifies an ALS-CG result without a Base run (Base takes 10 s
// on the Amazon-like input): the returned loss must equal the loss
// recomputed from the returned U and V, and must be below the loss of the
// initial factors.
func checkALS(x *matrix.Matrix, out map[string]mat, initLoss float64) error {
	u, v, loss := out["U"], out["V"], out["loss"]
	if u.Data == nil || v.Data == nil || loss.Data == nil {
		return fmt.Errorf("ALS outputs U, V, loss missing")
	}
	if u.Rows != x.Rows || v.Rows != x.Cols || u.Cols != v.Cols {
		return fmt.Errorf("ALS factor shapes %dx%d, %dx%d for X %dx%d", u.Rows, u.Cols, v.Rows, v.Cols, x.Rows, x.Cols)
	}
	want := refALSLoss(x, u, v)
	if !closeTo(loss.Data[0], want, tolAlgo) {
		return fmt.Errorf("ALS loss = %.12g, recomputed from U,V = %.12g", loss.Data[0], want)
	}
	if !(want < initLoss) {
		return fmt.Errorf("ALS loss %.6g is not below the initial loss %.6g", want, initLoss)
	}
	return nil
}

// checksum folds the bit patterns of a matrix's stored cells (and their
// positions, when sparse) into an FNV-1a hash, for the determinism
// self-test.
func checksum(h uint64, m *matrix.Matrix) uint64 {
	f := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		f.Write(b[:])
	}
	put(h)
	put(uint64(m.Rows))
	put(uint64(m.Cols))
	if d := m.Dense(); d != nil {
		for _, v := range d {
			put(math.Float64bits(v))
		}
	} else {
		csr := m.Sparse()
		for i := 0; i < m.Rows; i++ {
			vals, cols := csr.Row(i)
			for k, j := range cols {
				put(uint64(i)<<32 | uint64(j))
				put(math.Float64bits(vals[k]))
			}
		}
	}
	return f.Sum64()
}
