// Package compress implements compressed linear algebra (CLA): column-wise
// compression with heterogeneous encoding formats (dense dictionary coding,
// run-length encoding, uncompressed fallback) and greedy column co-coding,
// following Elgohary et al. (PVLDB 2016) as used by the paper's compressed
// operations experiments (Fig. 9). Fused operators execute over the
// dictionaries of distinct values, scaling per-value results by their
// occurrence counts.
package compress

import (
	"fmt"
	"math"

	"sysml/internal/matrix"
)

// ColGroup is one compressed column group.
type ColGroup interface {
	// Cols returns the absolute column indexes of the group.
	Cols() []int
	// NumDistinct returns the dictionary size (0 for uncompressed groups).
	NumDistinct() int
	// ForEachDistinct visits every dictionary tuple with its occurrence
	// count. Uncompressed groups visit each row with count 1.
	ForEachDistinct(fn func(vals []float64, count int))
	// ValueAt returns the value of absolute row r for the group-local
	// column position j.
	ValueAt(r, j int) float64
	// SizeBytes estimates the compressed in-memory size.
	SizeBytes() int64
}

// CMatrix is a compressed matrix: a set of column groups covering all
// columns.
type CMatrix struct {
	Rows, Cols int
	Groups     []ColGroup
	// size is SizeBytes as Compress computed it once: the interpreter asks
	// on every block that reads the matrix, and a wide OLE matrix (784
	// groups of 255 offset lists) takes 0.5 ms to add up. Zero for a matrix
	// assembled by hand or decoded from the wire, which is summed per call.
	size int64
}

// DDCGroup is dense dictionary coding: one code per row indexing a
// dictionary of value tuples.
type DDCGroup struct {
	cols   []int
	dict   [][]float64 // tuple per code
	codes  []uint16
	counts []int
	flat   flatDict
}

// Cols implements ColGroup.
func (g *DDCGroup) Cols() []int { return g.cols }

// NumDistinct implements ColGroup.
func (g *DDCGroup) NumDistinct() int { return len(g.dict) }

// ForEachDistinct implements ColGroup.
func (g *DDCGroup) ForEachDistinct(fn func([]float64, int)) {
	for i, tuple := range g.dict {
		fn(tuple, g.counts[i])
	}
}

// ValueAt implements ColGroup.
func (g *DDCGroup) ValueAt(r, j int) float64 { return g.dict[g.codes[r]][j] }

// SizeBytes implements ColGroup.
func (g *DDCGroup) SizeBytes() int64 {
	return int64(len(g.dict)*len(g.cols))*8 + int64(len(g.codes))*2 + int64(len(g.counts))*8
}

// RLEGroup is run-length encoding: per dictionary tuple, a list of runs
// (start, length) of rows holding that tuple.
type RLEGroup struct {
	cols   []int
	dict   [][]float64
	runs   [][]int32 // per tuple: flat (start, len) pairs
	counts []int
	rows   int
	// rowCode caches a decompressed code vector for random access.
	rowCode []uint16
	flat    flatDict
}

// Cols implements ColGroup.
func (g *RLEGroup) Cols() []int { return g.cols }

// NumDistinct implements ColGroup.
func (g *RLEGroup) NumDistinct() int { return len(g.dict) }

// ForEachDistinct implements ColGroup.
func (g *RLEGroup) ForEachDistinct(fn func([]float64, int)) {
	for i, tuple := range g.dict {
		fn(tuple, g.counts[i])
	}
}

// ValueAt implements ColGroup.
func (g *RLEGroup) ValueAt(r, j int) float64 {
	if g.rowCode == nil {
		g.rowCode = make([]uint16, g.rows)
		for code, runs := range g.runs {
			for k := 0; k < len(runs); k += 2 {
				start, n := int(runs[k]), int(runs[k+1])
				for i := 0; i < n; i++ {
					g.rowCode[start+i] = uint16(code)
				}
			}
		}
	}
	return g.dict[g.rowCode[r]][j]
}

// SizeBytes implements ColGroup.
func (g *RLEGroup) SizeBytes() int64 {
	var runs int64
	for _, r := range g.runs {
		runs += int64(len(r)) * 4
	}
	return int64(len(g.dict)*len(g.cols))*8 + runs + int64(len(g.counts))*8
}

// OLEGroup is offset-list encoding: per non-zero dictionary tuple, the
// sorted list of row offsets holding it; the all-zero tuple is implicit.
// This is the CLA encoding of choice for sparse columns.
type OLEGroup struct {
	cols      []int
	dict      [][]float64 // non-zero tuples only
	offsets   [][]int32   // row indexes per tuple
	counts    []int
	rows      int
	zeroCount int
	zeroTuple []float64
	rowCode   []int32 // lazily built for random access; -1 = zero tuple
	flat      flatDict
}

// Cols implements ColGroup.
func (g *OLEGroup) Cols() []int { return g.cols }

// NumDistinct implements ColGroup (including the implicit zero tuple).
func (g *OLEGroup) NumDistinct() int {
	if g.zeroCount > 0 {
		return len(g.dict) + 1
	}
	return len(g.dict)
}

// ForEachDistinct implements ColGroup; the implicit zero tuple is visited
// with its count so that non-sparse-safe functions stay correct.
func (g *OLEGroup) ForEachDistinct(fn func([]float64, int)) {
	for i, tuple := range g.dict {
		fn(tuple, g.counts[i])
	}
	if g.zeroCount > 0 {
		fn(g.zeroTuple, g.zeroCount)
	}
}

// ValueAt implements ColGroup.
func (g *OLEGroup) ValueAt(r, j int) float64 {
	if g.rowCode == nil {
		g.rowCode = make([]int32, g.rows)
		for i := range g.rowCode {
			g.rowCode[i] = -1
		}
		for code, offs := range g.offsets {
			for _, o := range offs {
				g.rowCode[o] = int32(code)
			}
		}
	}
	code := g.rowCode[r]
	if code < 0 {
		return 0
	}
	return g.dict[code][j]
}

// oleListHeaderBytes is the per-offset-list bookkeeping cost (slice header
// plus length/capacity words) that each tuple's offset list carries on top
// of its raw int32 payload.
const oleListHeaderBytes = 16

// SizeBytes implements ColGroup. Each offset list pays a per-list header on
// top of its 4-byte offsets; omitting it undercounts matrices with many
// small lists (high-cardinality sparse columns).
func (g *OLEGroup) SizeBytes() int64 {
	var offs int64
	for _, o := range g.offsets {
		offs += int64(len(o))*4 + oleListHeaderBytes
	}
	return int64(len(g.dict)*len(g.cols))*8 + offs + int64(len(g.counts))*8
}

// UCGroup is the uncompressed fallback: column-major dense storage.
type UCGroup struct {
	cols []int
	data []float64 // column-major: data[j*rows+r]
	rows int
}

// Cols implements ColGroup.
func (g *UCGroup) Cols() []int { return g.cols }

// NumDistinct implements ColGroup.
func (g *UCGroup) NumDistinct() int { return 0 }

// ForEachDistinct implements ColGroup.
func (g *UCGroup) ForEachDistinct(fn func([]float64, int)) {
	tuple := make([]float64, len(g.cols))
	for r := 0; r < g.rows; r++ {
		for j := range g.cols {
			tuple[j] = g.data[j*g.rows+r]
		}
		fn(tuple, 1)
	}
}

// ValueAt implements ColGroup.
func (g *UCGroup) ValueAt(r, j int) float64 { return g.data[j*g.rows+r] }

// SizeBytes implements ColGroup.
func (g *UCGroup) SizeBytes() int64 { return int64(len(g.data)) * 8 }

// Options configures compression.
type Options struct {
	// CoCode enables greedy pairwise column co-coding.
	CoCode bool
	// MaxDistinct is the dictionary-size threshold above which a column
	// falls back to the uncompressed group.
	MaxDistinct int
}

// DefaultOptions mirrors CLA defaults: co-coding on, 16-bit dictionaries.
func DefaultOptions() Options { return Options{CoCode: true, MaxDistinct: 1 << 16} }

// Compress builds a compressed matrix from a dense/sparse input.
func Compress(m *matrix.Matrix, opts Options) *CMatrix {
	cm := &CMatrix{Rows: m.Rows, Cols: m.Cols}
	cols := make([][]float64, m.Cols)
	for j := 0; j < m.Cols; j++ {
		cols[j] = make([]float64, m.Rows)
	}
	if m.IsSparse() {
		s := m.Sparse()
		for i := 0; i < m.Rows; i++ {
			vals, cix := s.Row(i)
			for k, j := range cix {
				cols[j][i] = vals[k]
			}
		}
	} else {
		d := m.Dense()
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				cols[j][i] = d[i*m.Cols+j]
			}
		}
	}
	// Distinct counts per column decide candidate grouping.
	distinct := make([]int, m.Cols)
	for j := range cols {
		distinct[j] = countDistinct(cols[j])
	}
	usedBy := make([]int, m.Cols)
	for j := range usedBy {
		usedBy[j] = -1
	}
	var groupCols [][]int
	if opts.CoCode {
		// Greedy pairwise co-coding: pair adjacent compressible columns
		// whose combined dictionary stays small.
		for j := 0; j < m.Cols; j++ {
			if usedBy[j] >= 0 || distinct[j] > opts.MaxDistinct {
				continue
			}
			best := -1
			for k := j + 1; k < m.Cols && k < j+8; k++ {
				if usedBy[k] >= 0 || distinct[k] > opts.MaxDistinct {
					continue
				}
				if distinct[j]*distinct[k] <= 256 {
					best = k
					break
				}
			}
			if best >= 0 {
				usedBy[j], usedBy[best] = len(groupCols), len(groupCols)
				groupCols = append(groupCols, []int{j, best})
			}
		}
	}
	for j := 0; j < m.Cols; j++ {
		if usedBy[j] < 0 {
			groupCols = append(groupCols, []int{j})
		}
	}
	for _, gc := range groupCols {
		cm.Groups = append(cm.Groups, buildGroup(gc, cols, m.Rows, opts))
	}
	cm.size = cm.SizeBytes()
	return cm
}

func countDistinct(col []float64) int {
	seen := map[float64]bool{}
	for _, v := range col {
		seen[v] = true
		if len(seen) > 1<<17 {
			break
		}
	}
	return len(seen)
}

// buildGroup selects the best encoding for one column group.
func buildGroup(gc []int, cols [][]float64, rows int, opts Options) ColGroup {
	// Build the dictionary of tuples.
	type entry struct {
		code  uint16
		count int
	}
	dictIdx := map[string]*entry{}
	var dict [][]float64
	codes := make([]uint16, rows)
	overflow := false
	keyBuf := make([]byte, 0, len(gc)*8)
	for r := 0; r < rows; r++ {
		keyBuf = keyBuf[:0]
		for _, j := range gc {
			bits := math.Float64bits(cols[j][r])
			for b := 0; b < 8; b++ {
				keyBuf = append(keyBuf, byte(bits>>(8*b)))
			}
		}
		k := string(keyBuf)
		e, ok := dictIdx[k]
		if !ok {
			if len(dict) >= opts.MaxDistinct || len(dict) >= 1<<16 {
				overflow = true
				break
			}
			tuple := make([]float64, len(gc))
			for t, j := range gc {
				tuple[t] = cols[j][r]
			}
			e = &entry{code: uint16(len(dict))}
			dict = append(dict, tuple)
			dictIdx[k] = e
		}
		e.count++
		codes[r] = e.code
	}
	if overflow {
		data := make([]float64, len(gc)*rows)
		for t, j := range gc {
			copy(data[t*rows:(t+1)*rows], cols[j])
		}
		return &UCGroup{cols: gc, data: data, rows: rows}
	}
	counts := make([]int, len(dict))
	for _, e := range dictIdx {
		counts[e.code] = e.count
	}
	// Choose OLE for sparse groups: offset lists over the non-zero rows
	// beat per-row codes when most tuples are all-zero.
	zeroCode := -1
	for i, tuple := range dict {
		allZero := true
		for _, v := range tuple {
			if v != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			zeroCode = i
			break
		}
	}
	if zeroCode >= 0 && 2*counts[zeroCode] > rows {
		g := &OLEGroup{
			cols: gc, rows: rows,
			zeroCount: counts[zeroCode],
			zeroTuple: make([]float64, len(gc)),
		}
		remap := make([]int32, len(dict))
		for i, tuple := range dict {
			if i == zeroCode {
				remap[i] = -1
				continue
			}
			remap[i] = int32(len(g.dict))
			g.dict = append(g.dict, tuple)
			g.counts = append(g.counts, counts[i])
			g.offsets = append(g.offsets, nil)
		}
		for r, code := range codes {
			if nc := remap[code]; nc >= 0 {
				g.offsets[nc] = append(g.offsets[nc], int32(r))
			}
		}
		return g
	}
	// Choose RLE when average run length is favourable.
	runsPer := make([][]int32, len(dict))
	numRuns := 0
	r := 0
	for r < rows {
		start := r
		code := codes[r]
		for r < rows && codes[r] == code {
			r++
		}
		runsPer[code] = append(runsPer[code], int32(start), int32(r-start))
		numRuns++
	}
	if numRuns*4 < rows { // runs (2×int32) cheaper than codes (uint16/row)
		return &RLEGroup{cols: gc, dict: dict, runs: runsPer, counts: counts, rows: rows}
	}
	return &DDCGroup{cols: gc, dict: dict, codes: codes, counts: counts}
}

// SizeBytes returns the compressed size of the matrix.
func (cm *CMatrix) SizeBytes() int64 {
	if cm.size != 0 {
		return cm.size
	}
	var s int64
	for _, g := range cm.Groups {
		s += g.SizeBytes()
	}
	return s
}

// CompressionRatio returns uncompressed dense bytes over compressed bytes.
func (cm *CMatrix) CompressionRatio() float64 {
	return float64(int64(cm.Rows)*int64(cm.Cols)*8) / float64(cm.SizeBytes())
}

// At returns element (r, c).
func (cm *CMatrix) At(r, c int) float64 {
	for _, g := range cm.Groups {
		for j, col := range g.Cols() {
			if col == c {
				return g.ValueAt(r, j)
			}
		}
	}
	panic(fmt.Sprintf("compress: column %d not covered", c))
}

// Decompress materializes the dense matrix.
func (cm *CMatrix) Decompress() *matrix.Matrix {
	out := matrix.NewDense(cm.Rows, cm.Cols)
	d := out.Dense()
	for _, g := range cm.Groups {
		for j, col := range g.Cols() {
			for r := 0; r < cm.Rows; r++ {
				d[r*cm.Cols+col] = g.ValueAt(r, j)
			}
		}
	}
	return out
}

// Sum computes sum(X) over the dictionaries (value × count per tuple).
func (cm *CMatrix) Sum() float64 {
	var s float64
	for _, g := range cm.Groups {
		g.ForEachDistinct(func(vals []float64, count int) {
			for _, v := range vals {
				s += v * float64(count)
			}
		})
	}
	return s
}

// SumSq computes sum(X^2) over the dictionaries: the hand-coded CLA path
// of Fig. 9, touching each distinct value once.
func (cm *CMatrix) SumSq() float64 {
	var s float64
	for _, g := range cm.Groups {
		g.ForEachDistinct(func(vals []float64, count int) {
			for _, v := range vals {
				s += v * v * float64(count)
			}
		})
	}
	return s
}
