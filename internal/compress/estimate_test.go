package compress

import (
	"testing"

	"sysml/internal/data"
	"sysml/internal/matrix"
)

// storedRatio is what the interpreter compares with CompressMinRatio: the
// matrix's stored size (CSR or dense) over the estimated compressed size.
func storedRatio(m *matrix.Matrix) float64 {
	return float64(m.SizeBytes()) / float64(EstimateRatio(m, 0).CompressedBytes)
}

// TestEstimateSparseDistinctOnNonZeros is the regression test of the
// estimator's reading of majority-zero columns: 26 all-distinct non-zeros
// among 256 sampled rows used to read as "27 distinct values in the
// column", which priced random sparse data at 3.97-4.1 — above the 3.0 at
// which it is compressed in full — against a real 0.47.
func TestEstimateSparseDistinctOnNonZeros(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *matrix.Matrix
	}{
		{"random sp 0.1", matrix.Rand(20000, 100, 0.1, -1, 1, 7)},
		{"random sp 0.3", matrix.Rand(20000, 100, 0.3, -1, 1, 8)},
		{"random sp 0.001", matrix.Rand(2000, 2000, 0.001, -1, 1, 9)},
	} {
		if !tc.m.IsSparse() {
			t.Fatalf("%s: not stored as CSR", tc.name)
		}
		got := storedRatio(tc.m)
		if got >= 1 {
			t.Errorf("%s: estimated ratio %.2f, random values must not look compressible", tc.name, got)
		}
		// The estimate is of the size Compress would produce.
		real := float64(tc.m.SizeBytes()) / float64(Compress(tc.m, DefaultOptions()).SizeBytes())
		if got < real/2 || got > real*2 {
			t.Errorf("%s: estimated ratio %.2f, compression gives %.2f", tc.name, got, real)
		}
	}
}

// TestEstimateSparseLowCardinality: repeats among the sampled non-zeros are
// extrapolated from the values seen once and twice, so a Mnist-like CSR
// column (255 intensity levels, 64 sampled non-zeros that show 56 of them)
// is neither read as 57 values nor as all-distinct.
func TestEstimateSparseLowCardinality(t *testing.T) {
	mnist := data.MnistLike(4000, 3)
	got := storedRatio(mnist)
	real := float64(mnist.SizeBytes()) / float64(Compress(mnist, DefaultOptions()).SizeBytes())
	if got < real/1.25 || got > real*1.25 {
		t.Errorf("Mnist-like CSR: estimated ratio %.2f, compression gives %.2f", got, real)
	}
	// Ratings 1..5 at 1% density: few samples per column, mostly repeats.
	ratings := data.NetflixLike(2000, 1000, 64)
	got = storedRatio(ratings)
	real = float64(ratings.SizeBytes()) / float64(Compress(ratings, DefaultOptions()).SizeBytes())
	if got < real/2 || got > real*2 {
		t.Errorf("ratings CSR: estimated ratio %.2f, compression gives %.2f", got, real)
	}
}

// TestEstimateSparseRuns: the run and zero counts the CSR walk derives from
// the gaps between stored entries are those of the dense walk — a CSR
// matrix whose columns are all at least half full takes the same
// extrapolation as its dense copy and must get the same estimate.
func TestEstimateSparseRuns(t *testing.T) {
	const rows, cols = 3000, 8
	d := matrix.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			// Runs of 1+j equal values, every third run zero, some columns
			// starting or ending in zeros.
			run := (i + 5*j) / (1 + j)
			if run%3 != 0 {
				d.Set(i, j, float64(1+run%7))
			}
		}
	}
	csr := d.ToSparse()
	if !csr.IsSparse() {
		t.Fatal("ToSparse kept the dense format")
	}
	if a, b := EstimateRatio(d, 0), EstimateRatio(csr, 0); a != b {
		t.Errorf("dense walk %+v, CSR walk %+v", a, b)
	}
}

// TestEstimateDensePinned pins dense-input estimates to the values of the
// commit before the CSR walk: the per-request estimate of a serving input is
// deliberately left as it was (ISSUE 18 (c)).
func TestEstimateDensePinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *matrix.Matrix
		want int64
	}{
		{"airline", data.AirlineLike(25000, 2), 3113584},
		{"mnist dense", data.MnistLike(3000, 67).ToDense(), 3863680},
		{"random", data.Dense(150000, 10, 1), 12000000},
	} {
		if got := EstimateRatio(tc.m, 0).CompressedBytes; got != tc.want {
			t.Errorf("%s: estimated %d bytes, the parent commit estimated %d", tc.name, got, tc.want)
		}
	}
	// What auto-compression accepts stays accepted.
	if r := storedRatio(data.MnistLike(3000, 67).ToDense()); r < 3 {
		t.Errorf("Mnist-like dense: ratio %.2f, want >= 3", r)
	}
	codes := lowCardinality(25000, 29, 64, 4)
	if r := storedRatio(codes); r < 3 {
		t.Errorf("codes table: ratio %.2f, want >= 3", r)
	}
}
