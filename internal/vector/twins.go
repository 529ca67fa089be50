package vector

import (
	"fmt"
	"math"
)

// KernelTwin is one primitive on fixed operands of length n, once as the
// portable Go loop and once as the exported function that dispatches to the
// assembly kernel. fusebench -exp kernels times the two and gates on their
// ratio, so a dispatch that silently stays on the Go loop reads 1x.
type KernelTwin struct {
	Name       string
	Flops      int // per call
	Bytes      int // read and written per call; set by TileTwins, whose kernels move data more than they compute
	Go, Export func()
}

var twinSink float64

// twinRows is the row count of the dense product twins.
const twinRows = 64

// KernelTwins returns the twins of the dot product, the rank-4 update, the
// dense products (twinRows×n %*% n×2, n×5 and n×10, and t(A) %*% B for an
// n×twinRows A and an n×10 B), the short-row kernels (X %*% v and t(X) %*% y
// over n and 4n rows of 10 cells), the CSR-row kernels (a row of n stored
// cells %*% a 784×5 and a 784×10 B, and its outer product with 5 and 10
// values into a 784×5 and a 784×10 C) and the indexed dot (a row of 10
// values against the n rows of a 784×10 V the cells name).
func KernelTwins(n int) []KernelTwin {
	a := make([]float64, twinRows*n)
	for i := range a {
		a[i] = float64(i%17-8) / 8
	}
	b := make([]float64, 10*n)
	for i := range b {
		b[i] = float64(i%13-6) / 4
	}
	c := make([]float64, max(n, 10))
	c2 := make([]float64, 10*twinRows)
	// The short-row twins: 4n rows of 10 cells in a, y one value per row.
	const k = 10
	y := a[:4*n]
	vals, ix, dense, d := a[:n], make([]int, n), make([]float64, 784*k), make([]float64, n)
	for i := range ix {
		ix[i] = i * 784 / n
	}
	twins := []KernelTwin{
		{"dot", 2 * n, 0,
			func() { twinSink += dotProductGo(a, b, 0, 0, n) },
			func() { twinSink += DotProduct(a, b, 0, 0, n) }},
		{"rank-4 update", 8 * n, 0,
			func() { multAdd4Go(a, 1e-9, 2e-9, 3e-9, 4e-9, c, 0, n, 2*n, 3*n, 0, n) },
			func() { MultAdd4(a, 1e-9, 2e-9, 3e-9, 4e-9, c, 0, n, 2*n, 3*n, 0, n) }},
	}
	for _, m := range []int{2, 5, 10} {
		name := fmt.Sprintf("narrow product 64xNx%d", m)
		if m >= narrowCols {
			name = fmt.Sprintf("dense product 64xNx%d", m)
		}
		twins = append(twins, KernelTwin{name, 2 * m * twinRows * n, 0,
			func() { matMultAddGo(a, b, c2, 0, n, 0, 0, twinRows, n, m) },
			func() { MatMultAdd(a, b, c2, 0, n, 0, 0, twinRows, n, m) }})
	}
	twins = append(twins,
		KernelTwin{"t(A) %*% B 64xNx10", 2 * k * twinRows * n, 0,
			func() { tMatMultAddGo(a, b, c2, 0, twinRows, 0, k, 0, n, twinRows, k) },
			func() { TMatMultAdd(a, b, c2, 0, twinRows, 0, k, 0, n, twinRows, k) }},
		KernelTwin{"X %*% v Nx10", 2 * k * n, 0,
			func() {
				for t := range c[:n] {
					c[t] = dotProductGo(a, b, t*k, 0, k)
				}
			},
			func() { DotRows(a, b, c, 0, k, 0, n, k) }},
		KernelTwin{"t(X) %*% y 4Nx10", 8 * k * n, 0,
			func() { tMatMultAddGo(a, y, c, 0, k, 0, 1, 0, 4*n, k, 1) },
			func() { TMatMultAdd(a, y, c, 0, k, 0, 1, 0, 4*n, k, 1) }})
	for _, m := range []int{5, 10} {
		twins = append(twins,
			KernelTwin{fmt.Sprintf("CSR row %%*%% B 784x%d", m), 2 * m * n, 0,
				func() { matMultSparseGo(vals, ix, dense, c, 0, 0, m) },
				func() { MatMultSparse(vals, ix, dense, c, 0, 0, m) }},
			KernelTwin{fmt.Sprintf("CSR row outer product 784x%d", m), 2 * m * n, 0,
				func() { outerMultAddSparseGo(vals, ix, b, dense, 0, 0, m) },
				func() { OuterMultAddSparse(vals, ix, b, dense, 0, 0, m) }})
	}
	return append(twins, KernelTwin{"indexed dot 784x10", 2 * k * n, 0,
		func() {
			for t, j := range ix {
				d[t] = dotProductGo(dense, b, j*k, 0, k)
			}
		},
		func() { DotRowsAt(dense, b, d, ix, 0, k) }})
}

// TileTwins returns one twin per kernel family of the narrow Row bodies, at
// the shapes a tile has there: the row sum and the row scaling (each row
// times its own scalar) of a 1024×2 and a 1024×5 tile, and a comparison
// against a scalar and exp over 4096 cells.
func TileTwins() []KernelTwin {
	const rows, n = 1024, 4096
	a := make([]float64, 5*rows)
	for i := range a {
		a[i] = float64(i%17-8) / 4
	}
	s, d, c := make([]float64, rows), make([]float64, rows), make([]float64, 5*rows)
	for i := range s {
		s[i] = float64(i%13+1) / 4
	}
	var twins []KernelTwin
	for _, w := range []int{2, 5} {
		twins = append(twins,
			KernelTwin{"row sum 1024x" + string(rune('0'+w)), rows * w, 8 * rows * (w + 1),
				func() { rowReduceGo(ReduceSum, a, 0, w, d, rows, w) },
				func() { RowReduce(ReduceSum, a, 0, w, d, rows, w) }},
			KernelTwin{"row scale 1024x" + string(rune('0'+w)), rows * w, 8 * rows * (2*w + 1),
				func() { scalarRowsGo(OpMul, false, a, 0, w, s, 0, 1, c, 0, rows, w) },
				func() { ScalarRows(OpMul, false, a, 0, w, s, 0, 1, c, 0, rows, w) }})
	}
	half := [1]float64{0.5}
	return append(twins,
		KernelTwin{"greater than a scalar", n, 16 * n,
			func() { scalarRowsGo(OpGt, false, a, 0, n, half[:], 0, 0, c, 0, 1, n) },
			func() { Scalar(OpGt, false, a, 0.5, c, 0, 0, n) }},
		KernelTwin{"exp", n, 16 * n,
			func() {
				for k, x := range a[:n] {
					c[k] = math.Exp(x)
				}
			},
			func() { ExpWrite(a, c, 0, 0, n) }})
}
