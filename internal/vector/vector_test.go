package vector

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-9 || d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func TestDotProduct(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	got := DotProduct(a, b, 0, 0, len(a))
	var want float64
	for i := range a {
		want += a[i] * b[i]
	}
	if got != want {
		t.Fatalf("DotProduct = %v, want %v", got, want)
	}
	// Offsets.
	if got := DotProduct(a, b, 2, 3, 4); got != 3*7+4*6+5*5+6*4 {
		t.Fatalf("offset DotProduct = %v", got)
	}
}

func TestDotProductUnrolledMatchesNaive(t *testing.T) {
	// Property: 8-fold unrolled loop equals the naive loop for all lengths.
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%40 + 1
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		var want float64
		for i := range a {
			want += a[i] * b[i]
		}
		return almostEq(DotProduct(a, b, 0, 0, n), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDotProductSparse(t *testing.T) {
	avals := []float64{2, 3}
	aix := []int{1, 4}
	b := []float64{9, 10, 11, 12, 13}
	if got := DotProductSparse(avals, aix, b, 0); got != 2*10+3*13 {
		t.Fatalf("DotProductSparse = %v", got)
	}
}

func TestSumAggregates(t *testing.T) {
	a := []float64{1, -2, 3, -4, 5, -6, 7, -8, 9}
	if got := Sum(a, 0, len(a)); got != 5 {
		t.Fatalf("Sum = %v", got)
	}
	if got := SumSq(a, 0, 3); got != 1+4+9 {
		t.Fatalf("SumSq = %v", got)
	}
	if got := Min(a, 0, len(a)); got != -8 {
		t.Fatalf("Min = %v", got)
	}
	if got := Max(a, 0, len(a)); got != 9 {
		t.Fatalf("Max = %v", got)
	}
	if got := IndexMax(a, 0, len(a)); got != 8 {
		t.Fatalf("IndexMax = %v", got)
	}
	if got := CountNnz([]float64{0, 1, 0, 2}, 0, 4); got != 2 {
		t.Fatalf("CountNnz = %v", got)
	}
	if got := IndexMax(nil, 0, 0); got != -1 {
		t.Fatalf("IndexMax(empty) = %v", got)
	}
}

func TestMultAdd(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	c := make([]float64, 9)
	MultAdd(a, 2, c, 0, 0, 9)
	for i := range c {
		if c[i] != 2*a[i] {
			t.Fatalf("MultAdd c[%d] = %v", i, c[i])
		}
	}
	MultAdd(a, 0, c, 0, 0, 9) // zero scale is a no-op
	if c[0] != 2 {
		t.Fatal("MultAdd with 0 modified output")
	}
}

// TestTileProducts checks the tile kernels against naive loops over narrow
// and wide outputs, row counts around the 4-row blocking, a padded row
// stride of A, and the broadcast (stride 0) right operand of TMatMultAdd.
func TestTileProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		return v
	}
	for _, rows := range []int{1, 3, 4, 5, 9} {
		for _, k := range []int{1, 3, 10, 131} {
			for _, n := range []int{1, 2, 3, 5, 7, 8, 13} {
				astride := k + 2
				a, b := fill(rows*astride+1), fill(k*n+1)
				got, want := fill(rows*n), make([]float64, rows*n)
				copy(want, got)
				for i := 0; i < rows; i++ {
					for j := 0; j < n; j++ {
						for kk := 0; kk < k; kk++ {
							want[i*n+j] += a[1+i*astride+kk] * b[1+kk*n+j]
						}
					}
				}
				MatMultAdd(a, b, got, 1, astride, 1, 0, rows, k, n)
				for i := range want {
					if math.Abs(got[i]-want[i]) > 1e-12 {
						t.Fatalf("MatMultAdd rows=%d k=%d n=%d: [%d] = %g, want %g", rows, k, n, i, got[i], want[i])
					}
				}
				// Sparse row variant agrees with the dense first row.
				idx := make([]int, k)
				for kk := range idx {
					idx[kk] = kk
				}
				cs, cd := make([]float64, n), make([]float64, n)
				MatMultSparse(a[1:1+k], idx, b, cs, 1, 0, n)
				MatMultAdd(a, b, cd, 1, astride, 1, 0, 1, k, n)
				for j := range cs {
					if math.Abs(cs[j]-cd[j]) > 1e-12 {
						t.Fatalf("MatMultSparse k=%d n=%d: %v, want %v", k, n, cs, cd)
					}
				}

				// C (k×n) += t(A rows×k) %*% B (rows×n), B strided or one
				// repeated row.
				for _, bstride := range []int{n, 0} {
					bt := fill(rows*n + 1)
					gotT, wantT := fill(k*n), make([]float64, k*n)
					copy(wantT, gotT)
					for i := 0; i < rows; i++ {
						for kk := 0; kk < k; kk++ {
							for j := 0; j < n; j++ {
								wantT[kk*n+j] += a[1+i*astride+kk] * bt[1+i*bstride+j]
							}
						}
					}
					TMatMultAdd(a, bt, gotT, 1, astride, 1, bstride, 0, rows, k, n)
					for i := range wantT {
						if math.Abs(gotT[i]-wantT[i]) > 1e-12 {
							t.Fatalf("TMatMultAdd rows=%d m=%d n=%d bstride=%d: [%d] = %g, want %g",
								rows, k, n, bstride, i, gotT[i], wantT[i])
						}
					}
				}
			}
		}
	}
}

func TestOuterMultAdd(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 4, 5}
	c := make([]float64, 6)
	OuterMultAdd(a, b, c, 0, 0, 0, 2, 3)
	want := []float64{3, 4, 5, 6, 8, 10}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("OuterMultAdd = %v, want %v", c, want)
		}
	}
	c2 := make([]float64, 6)
	OuterMultAddSparse([]float64{1, 2}, []int{0, 1}, b, c2, 0, 0, 3)
	for i := range want {
		if c2[i] != want[i] {
			t.Fatalf("OuterMultAddSparse = %v, want %v", c2, want)
		}
	}
}

func TestBinaryWritePrimitives(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := []float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}
	c := make([]float64, 10)
	Binary(OpMul, a, b, c, 0, 0, 0, 10)
	for i := range a {
		if c[i] != a[i]*2 {
			t.Fatalf("MultWrite c[%d] = %v", i, c[i])
		}
	}
	Binary(OpAdd, a, b, c, 0, 0, 0, 10)
	if c[0] != 3 {
		t.Fatalf("AddWrite = %v", c[0])
	}
	Binary(OpSub, a, b, c, 0, 0, 0, 10)
	if c[0] != -1 {
		t.Fatalf("MinusWrite = %v", c[0])
	}
	Binary(OpDiv, a, b, c, 0, 0, 0, 10)
	if c[3] != 2 {
		t.Fatalf("DivWrite = %v", c[3])
	}
	Binary(OpMin, a, b, c, 0, 0, 0, 10)
	if c[0] != 1 || c[9] != 2 {
		t.Fatalf("MinWrite = %v", c)
	}
	Binary(OpMax, a, b, c, 0, 0, 0, 10)
	if c[0] != 2 || c[9] != 10 {
		t.Fatalf("MaxWrite = %v", c)
	}
}

func TestScalarWritePrimitives(t *testing.T) {
	a := []float64{1, 4, 9}
	c := make([]float64, 3)
	Scalar(OpMul, false, a, 3, c, 0, 0, 3)
	if c[1] != 12 {
		t.Fatal("MultScalarWrite")
	}
	Scalar(OpAdd, false, a, 1, c, 0, 0, 3)
	if c[2] != 10 {
		t.Fatal("AddScalarWrite")
	}
	Scalar(OpSub, false, a, 1, c, 0, 0, 3)
	if c[0] != 0 {
		t.Fatal("MinusScalarWrite")
	}
	Scalar(OpSub, true, a, 10, c, 0, 0, 3)
	if c[2] != 1 {
		t.Fatal("ScalarMinusWrite")
	}
	Scalar(OpDiv, false, a, 2, c, 0, 0, 3)
	if c[1] != 2 {
		t.Fatal("DivScalarWrite")
	}
	Scalar(OpDiv, true, a, 36, c, 0, 0, 3)
	if c[2] != 4 {
		t.Fatal("ScalarDivWrite")
	}
	Scalar(OpPow, false, a, 2, c, 0, 0, 3)
	if c[1] != 16 {
		t.Fatal("PowScalarWrite^2")
	}
	Scalar(OpPow, false, a, 0.5, c, 0, 0, 3)
	if c[2] != 3 {
		t.Fatal("PowScalarWrite^0.5")
	}
	Scalar(OpGt, false, a, 3, c, 0, 0, 3)
	if c[0] != 0 || c[1] != 1 {
		t.Fatal("GreaterScalarWrite")
	}
	Scalar(OpNeq, false, a, 4, c, 0, 0, 3)
	if c[0] != 1 || c[1] != 0 {
		t.Fatal("NotEqualScalarWrite")
	}
}

func TestUnaryWritePrimitives(t *testing.T) {
	a := []float64{-1, 0, 1, 2.5}
	c := make([]float64, 4)
	ExpWrite(a, c, 0, 0, 4)
	if !almostEq(c[2], math.E) {
		t.Fatal("ExpWrite")
	}
	LogWrite([]float64{1, math.E}, c, 0, 0, 2)
	if !almostEq(c[1], 1) {
		t.Fatal("LogWrite")
	}
	SqrtWrite([]float64{4, 9}, c, 0, 0, 2)
	if c[1] != 3 {
		t.Fatal("SqrtWrite")
	}
	AbsWrite(a, c, 0, 0, 4)
	if c[0] != 1 {
		t.Fatal("AbsWrite")
	}
	SignWrite(a, c, 0, 0, 4)
	if c[0] != -1 || c[1] != 0 || c[3] != 1 {
		t.Fatal("SignWrite")
	}
	RoundWrite(a, c, 0, 0, 4)
	if c[3] != 3 {
		t.Fatal("RoundWrite")
	}
	FloorWrite(a, c, 0, 0, 4)
	if c[3] != 2 {
		t.Fatal("FloorWrite")
	}
	CeilWrite(a, c, 0, 0, 4)
	if c[3] != 3 {
		t.Fatal("CeilWrite")
	}
	NegWrite(a, c, 0, 0, 4)
	if c[0] != 1 {
		t.Fatal("NegWrite")
	}
	SigmoidWrite([]float64{0}, c, 0, 0, 1)
	if c[0] != 0.5 {
		t.Fatal("SigmoidWrite")
	}
	Pow2Write(a, c, 0, 0, 4)
	if c[3] != 6.25 {
		t.Fatal("Pow2Write")
	}
	CopyWrite(a, c, 0, 0, 4)
	if c[3] != 2.5 {
		t.Fatal("CopyWrite")
	}
	Fill(c, 7, 1, 2)
	if c[0] != -1 || c[1] != 7 || c[2] != 7 || c[3] != 2.5 {
		t.Fatal("Fill")
	}
	CumsumWrite([]float64{1, 2, 3}, c, 0, 0, 3)
	if c[2] != 6 {
		t.Fatal("CumsumWrite")
	}
}

func TestAddPrimitives(t *testing.T) {
	c := []float64{1, 1, 1, 1}
	Add([]float64{1, 2, 3, 4}, c, 0, 0, 4)
	if c[3] != 5 {
		t.Fatal("Add")
	}
	AddSparse([]float64{10}, []int{2}, c, 0)
	if c[2] != 14 {
		t.Fatal("AddSparse")
	}
}
