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
	"sysml/internal/par"
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
	// size is SizeBytes, summed once by Compress: the interpreter asks on
	// every block that reads the matrix, and a wide OLE matrix (784 groups
	// of 255 offset lists) takes 0.5 ms to add up.
	size int64
}

// dictionary is what the dictionary-coded groups share: their columns, their
// distinct tuples as one flat array in code order (tuple k is
// dict[k*len(cols):(k+1)*len(cols)]) and the occurrence count of each.
// ForEachDistinct, ValueAt and Dict read the array as it is.
type dictionary struct {
	cols   []int
	dict   []float64
	counts []float64
}

// Cols implements ColGroup.
func (d *dictionary) Cols() []int { return d.cols }

// NumDistinct implements ColGroup.
func (d *dictionary) NumDistinct() int { return len(d.counts) }

// ForEachDistinct implements ColGroup.
func (d *dictionary) ForEachDistinct(fn func([]float64, int)) {
	w := len(d.cols)
	for k, c := range d.counts {
		fn(d.dict[k*w:(k+1)*w:(k+1)*w], int(c))
	}
}

// value returns position j of tuple k.
func (d *dictionary) value(k, j int) float64 { return d.dict[k*len(d.cols)+j] }

// tuples returns the dictionary itself, for Dict.
func (d *dictionary) tuples() *dictionary { return d }

// DDCGroup is dense dictionary coding: one code per row indexing a
// dictionary of value tuples.
type DDCGroup struct {
	dictionary
	codes []uint16
}

// ValueAt implements ColGroup.
func (g *DDCGroup) ValueAt(r, j int) float64 { return g.value(int(g.codes[r]), j) }

// SizeBytes implements ColGroup.
func (g *DDCGroup) SizeBytes() int64 {
	return int64(len(g.dict))*8 + int64(len(g.codes))*2 + int64(len(g.counts))*8
}

// RLEGroup is run-length encoding: per dictionary tuple, a list of runs
// (start, length) of rows holding that tuple.
type RLEGroup struct {
	dictionary
	runs    [][]int32 // per tuple: flat (start, len) pairs
	rows    int
	rowCode []int32 // Codes, built on first random access
}

// ValueAt implements ColGroup.
func (g *RLEGroup) ValueAt(r, j int) float64 {
	if g.rowCode == nil {
		g.rowCode = Codes(g)
	}
	return g.value(int(g.rowCode[r]), j)
}

// SizeBytes implements ColGroup.
func (g *RLEGroup) SizeBytes() int64 {
	var runs int64
	for _, r := range g.runs {
		runs += int64(len(r)) * 4
	}
	return int64(len(g.dict))*8 + runs + int64(len(g.counts))*8
}

// OLEGroup is offset-list encoding: per non-zero dictionary tuple, the
// sorted list of row offsets holding it. The all-zero tuple is the
// dictionary's last, counting the rows no list holds; SizeBytes and
// WireSizeBytes leave it out, it is implicit. This is the CLA encoding of
// choice for sparse columns.
type OLEGroup struct {
	dictionary
	offsets [][]int32 // row indexes per non-zero tuple
	rows    int
	rowCode []int32 // Codes, built on first random access
}

// ValueAt implements ColGroup.
func (g *OLEGroup) ValueAt(r, j int) float64 {
	if g.rowCode == nil {
		g.rowCode = Codes(g)
	}
	return g.value(int(g.rowCode[r]), j)
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
	nz := int64(len(g.offsets))
	return nz*int64(len(g.cols))*8 + offs + nz*8
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
	// Pool runs the column panels and the groups of a compression in
	// parallel; nil is the process pool, as for matrix.Ctx.
	Pool *par.Pool
}

// DefaultOptions mirrors CLA defaults: co-coding on, 16-bit dictionaries.
func DefaultOptions() Options { return Options{CoCode: true, MaxDistinct: 1 << 16} }

// panelCols is the width of a column panel of a dense input: eight cells,
// one cache line of a row.
const panelCols = 8

// taskCells is the least work, in cells, that one task of a parallel region
// gets: an input below it is compressed on one worker.
const taskCells = 1 << 16

// grain is the number of items of cells cells each that make one task.
func grain(cells int) int { return (taskCells + cells - 1) / max(cells, 1) }

// Compress builds a compressed matrix from a dense/sparse input. One walk
// over the input in column panels dictionary-codes every column
// (codeColumns); adjacent columns whose dictionaries multiply to at most 256
// tuples are paired when opts.CoCode is set; and every group is encoded from
// the codes of its columns (buildGroup). Panels and groups run in parallel on
// opts.Pool. Values are told apart by their bits: the NaNs of one bit
// pattern are one value, and -0 and +0 are two.
func Compress(m *matrix.Matrix, opts Options) *CMatrix {
	limit := min(opts.MaxDistinct, 1<<16)
	cc := codeColumns(m, limit, opts.Pool)
	// Distinct counts per column decide candidate grouping.
	distinct := make([]int, m.Cols)
	for j := range cc {
		distinct[j] = len(cc[j].dict)
		if cc[j].over {
			distinct[j] = limit + 1
		}
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
	groups := make([]ColGroup, len(groupCols))
	opts.Pool.For(len(groups), grain(m.Rows), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			groups[i] = buildGroup(m, groupCols[i], cc, limit)
		}
	})
	// Every group's dictionary and counts move into one array, in group
	// order, which a pass over the dictionaries reads front to back.
	var flat []float64
	var dicts []*dictionary
	for _, g := range groups {
		if d, ok := g.(interface{ tuples() *dictionary }); ok {
			dicts = append(dicts, d.tuples())
			flat = append(append(flat, d.tuples().dict...), d.tuples().counts...)
		}
	}
	for _, t := range dicts {
		n := len(t.dict) + len(t.counts)
		t.dict, t.counts, flat = flat[:len(t.dict):len(t.dict)], flat[len(t.dict):n:n], flat[n:]
	}
	cm := &CMatrix{Rows: m.Rows, Cols: m.Cols, Groups: groups}
	for _, g := range groups {
		cm.size += g.SizeBytes()
	}
	return cm
}

// colCoder dictionary-codes one column: an open-addressing table keyed on
// the bits of a value, the distinct values in first-occurrence order, and
// the code of every row.
type colCoder struct {
	keys  []uint64 // a power of two of slots, at most half of them used
	slots []uint32 // per slot: 1 + the code of keys[slot], 0 when empty
	shift uint8    // 64 - log2(len(keys))
	dict  []float64
	codes []uint16
	limit int
	over  bool // more than limit distinct values: stored uncompressed
	// last and lastCode are the bits and the code of the value coded last;
	// last starts as the complement of the column's first value.
	last     uint64
	lastCode uint16
	next     int // the first row a CSR walk has not coded yet
}

// code returns the code of v, adding v to the dictionary at its first
// occurrence.
func (c *colCoder) code(v float64) uint16 {
	if b := math.Float64bits(v); b != c.last {
		c.lookup(b)
	}
	return c.lastCode
}

// slot returns the slot of keys that holds b, or the empty one b goes to.
func (c *colCoder) slot(b uint64) int {
	mask := len(c.keys) - 1
	h := int((b ^ b>>32) * 0x9E3779B97F4A7C15 >> c.shift)
	for c.slots[h] != 0 && c.keys[h] != b {
		h = (h + 1) & mask
	}
	return h
}

// lookup makes b the value coded last, with its code.
func (c *colCoder) lookup(b uint64) {
	h := c.slot(b)
	c.last, c.lastCode = b, uint16(c.slots[h]-1)
	if c.slots[h] != 0 {
		return
	}
	if c.over || len(c.dict) >= c.limit {
		c.over = true
		return
	}
	c.lastCode = uint16(len(c.dict))
	c.dict = append(c.dict, math.Float64frombits(b))
	c.keys[h], c.slots[h] = b, uint32(len(c.dict))
	if 2*len(c.dict) > len(c.keys) {
		n := 2 * len(c.keys)
		c.keys, c.slots, c.shift = make([]uint64, n), make([]uint32, n), c.shift-1
		for k, v := range c.dict {
			b := math.Float64bits(v)
			h := c.slot(b)
			c.keys[h], c.slots[h] = b, uint32(k+1)
		}
	}
}

// zerosTo codes the rows a CSR walk skipped before row r as zeros.
func (c *colCoder) zerosTo(r int) {
	for ; c.next < r; c.next++ {
		c.codes[c.next] = c.code(0)
	}
}

// blockRows is the number of rows a dense walk codes panel after panel:
// the lines of a block stay in cache from one panel to the next.
const blockRows = 64

// codeColumns dictionary-codes every column of m, a range of columns per
// task. A dense range is walked a block of rows at a time, and a block
// panel by panel: a panel's rows are one cache line each. A CSR input is
// walked in one range per worker, each walk reading every row's entries
// and coding those in its range. Every column has its own colCoder.
func codeColumns(m *matrix.Matrix, limit int, pool *par.Pool) []colCoder {
	cc := make([]colCoder, m.Cols)
	width := panelCols
	if m.IsSparse() {
		width = max(width, (m.Cols+pool.MaxWorkers()-1)/pool.MaxWorkers())
	}
	pool.For((m.Cols+width-1)/width, grain(m.Rows*width), func(lo, hi int) {
		c0, c1 := lo*width, min(hi*width, m.Cols)
		for j := c0; j < c1; j++ {
			cc[j] = colCoder{keys: make([]uint64, 16), slots: make([]uint32, 16), shift: 60,
				codes: make([]uint16, m.Rows), limit: limit}
			if m.Rows > 0 {
				cc[j].last = ^math.Float64bits(m.At(0, j))
			}
		}
		if s := m.Sparse(); s != nil {
			for r := 0; r < m.Rows; r++ {
				vals, cix := s.Row(r)
				for k, j := range cix {
					if j >= c0 && j < c1 {
						c := &cc[j]
						c.zerosTo(r)
						c.codes[r], c.next = c.code(vals[k]), r+1
					}
				}
			}
			for j := c0; j < c1; j++ {
				cc[j].zerosTo(m.Rows)
			}
		} else {
			d := m.Dense()
			for r0 := 0; r0 < m.Rows; r0 += blockRows {
				for p := c0; p < c1; p += panelCols {
					panel := cc[p:min(p+panelCols, c1)]
					for r := r0; r < min(r0+blockRows, m.Rows); r++ {
						for j, v := range d[r*m.Cols+p : r*m.Cols+p+len(panel)] {
							c := &panel[j]
							c.codes[r] = c.code(v)
						}
					}
				}
			}
		}
	})
	return cc
}

// buildGroup encodes one column group from the codes of its columns: a
// single column's dictionary and codes as they are, a pair's coded from the
// two code vectors (coCode). A group of more than limit tuples is stored
// uncompressed.
func buildGroup(m *matrix.Matrix, gc []int, cc []colCoder, limit int) ColGroup {
	a := &cc[gc[0]]
	dict, codes, over := a.dict, a.codes, a.over
	if len(gc) == 2 {
		dict, codes, over = coCode(a, &cc[gc[1]], limit)
	}
	if over {
		data := make([]float64, len(gc)*m.Rows)
		for t, j := range gc {
			for r := 0; r < m.Rows; r++ {
				data[t*m.Rows+r] = m.At(r, j)
			}
		}
		return &UCGroup{cols: gc, data: data, rows: m.Rows}
	}
	return encode(gc, dict, codes)
}

// coCode codes the column pair (a, b) from the two code vectors: a tuple of
// codes (x, y) gets its pair code at its first row, through a table with
// one entry per tuple of codes, so that the pair's dictionary is in
// first-occurrence order like a column's.
func coCode(a, b *colCoder, limit int) (dict []float64, codes []uint16, over bool) {
	if a.over || b.over {
		return nil, nil, true
	}
	nb := len(b.dict)
	table := make([]uint32, len(a.dict)*nb) // 1 + the pair code, 0 before its first row
	codes = make([]uint16, len(a.codes))
	for r, x := range a.codes {
		y := b.codes[r]
		t := &table[int(x)*nb+int(y)]
		if *t == 0 {
			if len(dict) >= 2*limit {
				return nil, nil, true
			}
			dict = append(dict, a.dict[x], b.dict[y])
			*t = uint32(len(dict) / 2)
		}
		codes[r] = uint16(*t - 1)
	}
	return dict, codes, false
}

// encode selects the encoding of a dictionary-coded group: OLE when the
// all-zero tuple (every bit zero) holds most rows, RLE when the runs of
// equal codes are long, DDC otherwise.
func encode(gc []int, dict []float64, codes []uint16) ColGroup {
	w, rows := len(gc), len(codes)
	counts := make([]float64, len(dict)/w)
	for _, c := range codes {
		counts[c]++
	}
	zero := -1
	for k := 0; k < len(counts) && zero < 0; k++ {
		zero = k
		for _, v := range dict[k*w : (k+1)*w] {
			if math.Float64bits(v) != 0 {
				zero = -1
				break
			}
		}
	}
	if zero >= 0 && 2*counts[zero] > float64(rows) {
		// Offset lists over the non-zero rows beat per-row codes when most
		// tuples are all-zero; the zero tuple moves last.
		g := &OLEGroup{rows: rows, offsets: make([][]int32, 0, len(counts)-1)}
		g.cols = gc
		all := make([]int32, rows-int(counts[zero]))
		next := make([]int, len(counts)) // where the next row of tuple k goes in all
		for k, pos := 0, 0; k < len(counts); k++ {
			if k == zero {
				next[k] = -1
				continue
			}
			n := counts[k]
			next[k], pos = pos, pos+int(n)
			g.offsets = append(g.offsets, all[next[k]:pos:pos])
			g.dict = append(g.dict, dict[k*w:(k+1)*w]...)
			g.counts = append(g.counts, n)
		}
		for r, c := range codes {
			if i := next[c]; i >= 0 {
				all[i] = int32(r)
				next[c]++
			}
		}
		g.dict, g.counts = append(g.dict, make([]float64, w)...), append(g.counts, counts[zero])
		return g
	}
	d := dictionary{cols: gc, dict: dict, counts: counts}
	numRuns := 0
	for r := range codes {
		if r == 0 || codes[r] != codes[r-1] {
			numRuns++
		}
	}
	if numRuns*4 >= rows { // runs (2×int32) no cheaper than codes (uint16/row)
		return &DDCGroup{dictionary: d, codes: codes}
	}
	runs := make([][]int32, len(counts))
	for r := 0; r < rows; {
		start, code := r, codes[r]
		for r < rows && codes[r] == code {
			r++
		}
		runs[code] = append(runs[code], int32(start), int32(r-start))
	}
	return &RLEGroup{dictionary: d, runs: runs, rows: rows}
}

// SizeBytes returns the compressed size of the matrix.
func (cm *CMatrix) SizeBytes() int64 { return cm.size }

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
