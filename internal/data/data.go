// Package data provides the dataset generators of the evaluation: plain
// synthetic rand matrices and synthetic stand-ins for the paper's real
// datasets, matched to their published shape, sparsity, and value
// characteristics (see DESIGN.md substitutions; the experiments depend on
// dimensions, sparsity, and compressibility rather than semantic content).
package data

import (
	"math"
	"math/rand"

	"sysml/internal/matrix"
)

// Dense returns a dense uniform matrix in [-1, 1).
func Dense(rows, cols int, seed int64) *matrix.Matrix {
	return matrix.Rand(rows, cols, 1, -1, 1, seed)
}

// Sparse returns a sparse uniform matrix with the given non-zero fraction.
func Sparse(rows, cols int, sparsity float64, seed int64) *matrix.Matrix {
	return matrix.Rand(rows, cols, sparsity, -1, 1, seed)
}

// AirlineLike mimics the Airline78 dataset: dense, 29 columns, low
// per-column cardinality (categorical and small-integer fields), which is
// what makes CLA compression effective (paper reports ratio 7.44x).
func AirlineLike(rows int, seed int64) *matrix.Matrix {
	rng := rand.New(rand.NewSource(seed))
	const cols = 29
	card := make([]float64, cols)
	for j := range card {
		// Mix of low-cardinality categorical (days, carriers) and wider
		// numeric columns (delays, distances).
		switch {
		case j < 10:
			card[j] = float64(4 + rng.Intn(28))
		case j < 20:
			card[j] = float64(32 + rng.Intn(200))
		default:
			card[j] = float64(500 + rng.Intn(1500))
		}
	}
	out := matrix.NewDense(rows, cols)
	d := out.Dense()
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			d[i*cols+j] = math.Floor(rng.Float64() * card[j])
		}
	}
	return out
}

// MnistLike mimics the (Infi)MNIST datasets: 784 columns, sparsity 0.25,
// non-zero values clustered on a 256-level intensity grid.
func MnistLike(rows int, seed int64) *matrix.Matrix {
	rng := rand.New(rand.NewSource(seed))
	const cols = 784
	csr := &matrix.CSR{RowPtr: make([]int, rows+1)}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < 0.25 {
				csr.ColIdx = append(csr.ColIdx, j)
				csr.Values = append(csr.Values, float64(1+rng.Intn(255))/255)
			}
		}
		csr.RowPtr[i+1] = len(csr.Values)
	}
	return matrix.NewSparseCSR(rows, cols, csr)
}

// NetflixLike mimics the Netflix ratings matrix: sparsity 0.012, integer
// ratings 1..5 with per-user activity skew.
func NetflixLike(rows, cols int, seed int64) *matrix.Matrix {
	return ratings(rows, cols, 0.012, seed)
}

// AmazonLike mimics the Amazon books review matrix: ultra-sparse
// (1.2e-6 at full scale; the fraction is scaled up with small shapes so
// rows keep at least a handful of non-zeros).
func AmazonLike(rows, cols int, seed int64) *matrix.Matrix {
	sparsity := math.Max(1.2e-6, 4/float64(cols))
	return ratings(rows, cols, sparsity, seed)
}

func ratings(rows, cols int, sparsity float64, seed int64) *matrix.Matrix {
	rng := rand.New(rand.NewSource(seed))
	csr := &matrix.CSR{RowPtr: make([]int, rows+1)}
	for i := 0; i < rows; i++ {
		// Skewed per-row activity: a few heavy raters.
		rowSp := sparsity * math.Exp(rng.NormFloat64()*0.8)
		expected := rowSp * float64(cols)
		n := int(expected)
		if rng.Float64() < expected-float64(n) {
			n++
		}
		if n > cols {
			n = cols
		}
		seen := map[int]bool{}
		colsIdx := make([]int, 0, n)
		for len(colsIdx) < n {
			j := rng.Intn(cols)
			if !seen[j] {
				seen[j] = true
				colsIdx = append(colsIdx, j)
			}
		}
		sortInts(colsIdx)
		for _, j := range colsIdx {
			csr.ColIdx = append(csr.ColIdx, j)
			csr.Values = append(csr.Values, float64(1+rng.Intn(5)))
		}
		csr.RowPtr[i+1] = len(csr.Values)
	}
	return matrix.NewSparseCSR(rows, cols, csr)
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// BinaryLabels generates ±1 labels from a random linear model over X with
// label noise, for classification workloads.
func BinaryLabels(x *matrix.Matrix, noise float64, seed int64) *matrix.Matrix {
	rng := rand.New(rand.NewSource(seed))
	w := matrix.Rand(x.Cols, 1, 1, -1, 1, seed+1)
	score := matrix.MatMult(x, w)
	y := matrix.NewDense(x.Rows, 1)
	for i := 0; i < x.Rows; i++ {
		v := 1.0
		if score.At(i, 0) < 0 {
			v = -1
		}
		if rng.Float64() < noise {
			v = -v
		}
		y.Set(i, 0, v)
	}
	return y
}

// ZeroOneLabels converts ±1 labels to {0, 1}.
func ZeroOneLabels(y *matrix.Matrix) *matrix.Matrix {
	out := matrix.NewDense(y.Rows, 1)
	for i := 0; i < y.Rows; i++ {
		if y.At(i, 0) > 0 {
			out.Set(i, 0, 1)
		}
	}
	return out
}

// MultiClassIndicator generates an n×k one-hot label matrix from a random
// linear model with k classes.
func MultiClassIndicator(x *matrix.Matrix, k int, seed int64) *matrix.Matrix {
	w := matrix.Rand(x.Cols, k, 1, -1, 1, seed)
	score := matrix.MatMult(x, w)
	cls := matrix.RowIndexMax(score)
	out := matrix.NewDense(x.Rows, k)
	for i := 0; i < x.Rows; i++ {
		out.Set(i, int(cls.At(i, 0))-1, 1)
	}
	return out
}

// CodesLike generates a table of 29 dense columns of small integer codes
// (4..127 distinct values each), the kind of input auto-compression accepts
// (the benchmark's <algo>.codes programs).
func CodesLike(rows int, seed int64) *matrix.Matrix {
	const cols = 29
	card := matrix.Rand(1, cols, 1, 4, 128, seed).Dense()
	m := matrix.Rand(rows, cols, 1, 0, 1, seed+1)
	d := m.Dense()
	for k := range d {
		d[k] = float64(int(d[k] * float64(int(card[k%cols]))))
	}
	return m
}
