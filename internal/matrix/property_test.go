package matrix

import (
	"math/rand"
	"testing"

	"sysml/internal/par"
)

// Property tests: the blocked/parallel kernels must agree with naive
// references within 1e-9 across random shapes, sparsities, representations,
// and worker counts (including the sequential SetMaxWorkers(1) path).

const propEps = 1e-9

// naiveMatMult is the reference triple loop, written without blocking,
// parallelism, or vector primitives.
func naiveMatMult(a, b *Matrix) *Matrix {
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.dense[i*b.Cols+j] = s
		}
	}
	return out
}

func naiveTSMM(x *Matrix) *Matrix {
	return naiveMatMult(Transpose(x.ToDense()), x.ToDense())
}

// propCase is one randomized kernel configuration.
type propCase struct {
	m, k, n  int
	spA, spB float64
}

func randCases(rng *rand.Rand, count int) []propCase {
	dims := []int{1, 2, 3, 5, 7, 8, 16, 33, 64, 127, 130}
	sps := []float64{1, 1, 0.5, 0.1, 0.02}
	cases := make([]propCase, count)
	for i := range cases {
		cases[i] = propCase{
			m:   dims[rng.Intn(len(dims))],
			k:   dims[rng.Intn(len(dims))],
			n:   dims[rng.Intn(len(dims))],
			spA: sps[rng.Intn(len(sps))],
			spB: sps[rng.Intn(len(sps))],
		}
	}
	return cases
}

// asRep converts m to the representation selected by bit (0 dense, 1 CSR).
func asRep(m *Matrix, bit int) *Matrix {
	if bit == 0 {
		return m.ToDense()
	}
	return m.ToSparse()
}

func TestMatMultMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, workers := range []int{1, 2, 8} {
		old := par.SetMaxWorkers(workers)
		// Plus the Table-4 shapes of the narrow kernel: tall narrow X times a
		// few columns, and t(X) times a few columns (the k-split).
		cases := append(randCases(rng, 12),
			propCase{m: 20000, k: 10, n: 2, spA: 1, spB: 1},
			propCase{m: 10, k: 20000, n: 2, spA: 1, spB: 1},
			propCase{m: 10, k: 20000, n: 7, spA: 1, spB: 1})
		for _, c := range cases {
			a := Rand(c.m, c.k, c.spA, -1, 1, rng.Int63())
			b := Rand(c.k, c.n, c.spB, -1, 1, rng.Int63())
			want := naiveMatMult(a, b)
			for rep := 0; rep < 4; rep++ {
				got := MatMult(asRep(a, rep&1), asRep(b, rep>>1))
				if !got.EqualsApprox(want, propEps) {
					t.Errorf("workers=%d %dx%dx%d spA=%.2f spB=%.2f rep=%d: mismatch",
						workers, c.m, c.k, c.n, c.spA, c.spB, rep)
				}
			}
		}
		par.SetMaxWorkers(old)
	}
}

// TestMatMultSparseSparseCSROutput forces the CSR-output path (very sparse
// product, wide output) and checks it against the naive reference.
func TestMatMultSparseSparseCSROutput(t *testing.T) {
	a := Rand(100, 300, 0.01, -1, 1, 7).ToSparse()
	b := Rand(300, 200, 0.01, -1, 1, 8).ToSparse()
	got := MatMult(a, b)
	if !got.IsSparse() {
		t.Error("very sparse product should produce a CSR result")
	}
	if want := naiveMatMult(a, b); !got.EqualsApprox(want, propEps) {
		t.Error("CSR-output sparse product mismatch")
	}
}

func TestTSMMMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	shapes := []struct{ m, n int }{{1, 1}, {5, 3}, {17, 9}, {64, 33}, {200, 40}}
	sps := []float64{1, 0.5, 0.05}
	for _, workers := range []int{1, 2, 8} {
		old := par.SetMaxWorkers(workers)
		for _, sh := range shapes {
			for _, sp := range sps {
				x := Rand(sh.m, sh.n, sp, -1, 1, rng.Int63())
				want := naiveTSMM(x)
				for rep := 0; rep < 2; rep++ {
					got := TSMM(asRep(x, rep))
					if !got.EqualsApprox(want, propEps) {
						t.Errorf("workers=%d %dx%d sp=%.2f rep=%d: TSMM mismatch",
							workers, sh.m, sh.n, sp, rep)
					}
				}
			}
		}
		par.SetMaxWorkers(old)
	}
}

// TestTSMMParallelPartials uses enough rows to hand every worker several
// chunks, exercising the per-worker triangle accumulators and the parallel
// reduce + mirror steps.
func TestTSMMParallelPartials(t *testing.T) {
	old := par.SetMaxWorkers(8)
	defer par.SetMaxWorkers(old)
	x := Rand(3000, 50, 1, -1, 1, 99)
	want := naiveTSMM(x)
	if got := TSMM(x); !got.EqualsApprox(want, propEps) {
		t.Error("parallel TSMM with partial triangles mismatch")
	}
}

// TestMatMultPooledBuffersAreClean runs products through pooled buffers
// twice; a stale (non-zeroed) recycled buffer would corrupt the second
// result.
func TestMatMultPooledBuffersAreClean(t *testing.T) {
	a := Rand(64, 64, 1, -1, 1, 1)
	b := Rand(64, 64, 1, -1, 1, 2)
	want := naiveMatMult(a, b)
	first := MatMult(a, b)
	if !first.EqualsApprox(want, propEps) {
		t.Fatal("first product mismatch")
	}
	first.Release()
	if got := MatMult(a, b); !got.EqualsApprox(want, propEps) {
		t.Error("product through recycled buffer mismatch")
	}
}
