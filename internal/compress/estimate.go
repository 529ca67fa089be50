package compress

import "sysml/internal/matrix"

// Estimate is the result of the sampled compression estimator: the
// planner's basis for deciding whether compressing an input pays, without
// paying for a full compression pass.
type Estimate struct {
	// Ratio is estimated dense bytes over estimated compressed bytes.
	Ratio float64
	// DenseBytes is the uncompressed dense size (rows×cols×8).
	DenseBytes int64
	// CompressedBytes is the estimated compressed size.
	CompressedBytes int64
}

// DefaultSampleRows is the default row-sample size for EstimateRatio.
const DefaultSampleRows = 256

// EstimateRatio estimates the compression ratio of m from a strided sample
// of at most sampleRows rows (<=0 selects DefaultSampleRows). Per column it
// extrapolates the distinct-value count, run count, and zero count observed
// in the sample to the full column, prices the DDC/RLE/OLE encodings from
// those extrapolations, and charges each column its cheapest encoding
// (capped at the dense size, mirroring the UC fallback). Columns whose
// sample is all-distinct are priced as incompressible — the saturation
// heuristic that makes random data decline fast.
//
// A CSR input is sampled by one walk over the stored entries of the sampled
// rows, and its majority-zero columns extrapolate the distinct count of
// their non-zeros on the non-zero sample (estimateSparse). A dense input
// keeps the per-cell walk and the extrapolation over all sampled cells.
func EstimateRatio(m *matrix.Matrix, sampleRows int) Estimate {
	if sampleRows <= 0 {
		sampleRows = DefaultSampleRows
	}
	est := Estimate{DenseBytes: int64(m.Rows) * int64(m.Cols) * 8, Ratio: 1}
	if m.Rows == 0 || m.Cols == 0 {
		return est
	}
	stride := m.Rows / sampleRows
	if stride < 1 {
		stride = 1
	}
	var sampled []int
	for r := 0; r < m.Rows; r += stride {
		sampled = append(sampled, r)
	}
	n := len(sampled)
	scale := float64(m.Rows) / float64(n)

	var total int64
	if m.IsSparse() {
		total = estimateSparse(m, sampled, scale)
	} else {
		for c := 0; c < m.Cols; c++ {
			total += denseColBytes(m, c, sampled, scale)
		}
	}
	if total < 1 {
		total = 1
	}
	est.CompressedBytes = total
	est.Ratio = float64(est.DenseBytes) / float64(total)
	return est
}

// denseColBytes prices column c of a dense matrix from its sampled cells.
func denseColBytes(m *matrix.Matrix, c int, sampled []int, scale float64) int64 {
	n := len(sampled)
	seen := make(map[float64]struct{}, 64)
	runs, zeros := 1, 0
	prev := 0.0
	for i, r := range sampled {
		v := m.At(r, c)
		if len(seen) < n { // map stops growing once saturated anyway
			seen[v] = struct{}{}
		}
		if v == 0 {
			zeros++
		}
		if i > 0 && v != prev {
			runs++
		}
		prev = v
	}
	dEst, ok := extrapolate(len(seen), n, scale)
	if !ok {
		return int64(m.Rows) * 8
	}
	return colBytes(m.Rows, n, scale, dEst, runs, zeros)
}

// extrapolate scales a distinct count observed in a sample of n values to
// the population: saturated samples (many repeats) keep the observed count;
// busier samples scale toward linear. An all-distinct sample is not
// extrapolated (ok false): the column is assumed incompressible.
func extrapolate(d, n int, scale float64) (dEst float64, ok bool) {
	switch {
	case d >= n && n > 1:
		return 0, false
	case d > n/2:
		return float64(d) * scale, true
	}
	return float64(d), true
}

// colBytes prices one column of rows cells from what its n-row sample
// showed — dEst distinct values extrapolated to the column, runs value runs
// and zeros zero cells in the sample — as its cheapest encoding, capped at
// the dense size.
func colBytes(rows, n int, scale, dEst float64, runs, zeros int) int64 {
	denseCol := int64(rows) * 8
	if dEst > float64(rows) {
		dEst = float64(rows)
	}
	dictBytes := int64(dEst)*8 + int64(dEst)*8 // dict + counts
	ddc := dictBytes + int64(rows)*2
	rle := dictBytes + int64(float64(runs)*scale)*8
	best := ddc
	if rle < best {
		best = rle
	}
	if 2*zeros > n {
		nnz := int64(float64(n-zeros) * scale)
		ole := dictBytes + nnz*4 + int64(dEst)*oleListHeaderBytes
		if ole < best {
			best = ole
		}
	}
	if best > denseCol {
		best = denseCol
	}
	return best
}

// estimateSparse prices every column of a CSR matrix from one walk over the
// stored entries of the sampled rows: the entries are bucketed by column
// (counting sort, sample order kept), and each column's distinct, run and
// zero counts follow from its bucket with the gaps read as zeros.
//
// A column with more than half zeros extrapolates its distinct non-zeros on
// the non-zero sample: 26 all-distinct non-zeros in 256 sampled rows say
// "every non-zero is its own value" (distinct ∝ estimated nnz), not "27
// values in the column" — the reading that priced random sparse data as
// compressible and paid a full compression to find out it was not. A sample
// with repeats is extrapolated from how many values it showed once and
// twice (Chao's estimator, d + f1²/2f2), which finds the 255 levels of a
// Mnist-like column from 64 draws that show 56 of them.
func estimateSparse(m *matrix.Matrix, sampled []int, scale float64) int64 {
	s := m.Sparse()
	n := len(sampled)
	start := make([]int, m.Cols+1)
	for _, r := range sampled {
		_, cix := s.Row(r)
		for _, c := range cix {
			start[c+1]++
		}
	}
	for c := 0; c < m.Cols; c++ {
		start[c+1] += start[c]
	}
	type entry struct {
		i int // position of the row in the sample
		v float64
	}
	entries := make([]entry, start[m.Cols])
	fill := append([]int(nil), start[:m.Cols]...)
	for i, r := range sampled {
		vals, cix := s.Row(r)
		for k, c := range cix {
			entries[fill[c]] = entry{i, vals[k]}
			fill[c]++
		}
	}

	seen := make(map[float64]int, 64)
	var total int64
	for c := 0; c < m.Cols; c++ {
		clear(seen)
		runs, nz := 1, 0
		prevI, prevV := -1, 0.0 // the column reads 0 before its first entry
		for _, e := range entries[start[c]:start[c+1]] {
			if e.v == 0 {
				continue // an explicitly stored zero is a gap
			}
			nz++
			seen[e.v]++
			if e.i > prevI+1 { // zeros between the previous entry and this one
				if prevV != 0 {
					runs++
				}
				prevV = 0
			}
			if e.i > 0 && e.v != prevV {
				runs++
			}
			prevI, prevV = e.i, e.v
		}
		if prevV != 0 && prevI < n-1 {
			runs++ // trailing zeros
		}
		zeros := n - nz
		dnz := len(seen)
		var dEst float64
		if 2*zeros > n {
			once, twice := 0.0, 0.0
			for _, k := range seen {
				switch k {
				case 1:
					once++
				case 2:
					twice++
				}
			}
			nnzEst := float64(nz) * scale
			dEst = nnzEst // all-distinct non-zeros
			if dnz < nz {
				dEst = min(float64(dnz)+once*once/(2*max(twice, 1)), nnzEst)
			}
			dEst++ // the zero
		} else {
			d := dnz
			if zeros > 0 {
				d++
			}
			var ok bool
			if dEst, ok = extrapolate(d, n, scale); !ok {
				total += int64(m.Rows) * 8
				continue
			}
		}
		total += colBytes(m.Rows, n, scale, dEst, runs, zeros)
	}
	return total
}
