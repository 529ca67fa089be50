package compress

import (
	"encoding/binary"
	"fmt"
	"math"

	"sysml/internal/matrix"
)

// Wire format for compressed matrices: the dist backend ships column
// groups, not dense blocks, so broadcast and shuffle traffic scales with
// the compressed size. Counts, zero tuples, and other derivable state are
// recomputed on decode rather than shipped.
//
//	"CLA1" | rows i32 | cols i32 | ngroups i32
//	per group: kind u8 | ncols i32 | cols []i32 | payload
//	  DDC: ndist i32 | dict []f64 | codes []u16
//	  RLE: ndist i32 | dict []f64 | per tuple: nruns i32, runs []i32
//	  OLE: ndist i32 | dict []f64 | per tuple: noff i32, offsets []i32
//	  UC:  data []f64 (column-major)
const wireMagic = "CLA1"

const (
	wireKindDDC = byte(iota)
	wireKindRLE
	wireKindOLE
	wireKindUC
)

// Encode serializes a compressed matrix into its wire form.
func Encode(cm *CMatrix) []byte {
	buf := make([]byte, 0, WireSizeBytes(cm))
	buf = append(buf, wireMagic...)
	buf = putI32(buf, int32(cm.Rows))
	buf = putI32(buf, int32(cm.Cols))
	buf = putI32(buf, int32(len(cm.Groups)))
	for _, g := range cm.Groups {
		switch g := g.(type) {
		case *DDCGroup:
			buf = append(buf, wireKindDDC)
			buf = putCols(buf, g.cols)
			buf = putDict(buf, len(g.counts), g.dict)
			for _, c := range g.codes {
				buf = binary.LittleEndian.AppendUint16(buf, c)
			}
		case *RLEGroup:
			buf = append(buf, wireKindRLE)
			buf = putCols(buf, g.cols)
			buf = putDict(buf, len(g.counts), g.dict)
			for _, runs := range g.runs {
				buf = putI32(buf, int32(len(runs)/2))
				for _, v := range runs {
					buf = putI32(buf, v)
				}
			}
		case *OLEGroup:
			buf = append(buf, wireKindOLE)
			buf = putCols(buf, g.cols)
			buf = putDict(buf, len(g.offsets), g.dict[:len(g.offsets)*len(g.cols)])
			for _, offs := range g.offsets {
				buf = putI32(buf, int32(len(offs)))
				for _, v := range offs {
					buf = putI32(buf, v)
				}
			}
		case *UCGroup:
			buf = append(buf, wireKindUC)
			buf = putCols(buf, g.cols)
			for _, v := range g.data {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		default:
			panic("compress: unknown column group type")
		}
	}
	return buf
}

// WireSizeBytes returns the exact byte length Encode produces for cm —
// what the dist backend charges for compressed transfers.
func WireSizeBytes(cm *CMatrix) int64 {
	s := int64(4 + 3*4)
	for _, g := range cm.Groups {
		s += 1 + 4 + int64(len(g.Cols()))*4
		switch g := g.(type) {
		case *DDCGroup:
			s += 4 + int64(len(g.dict))*8 + int64(len(g.codes))*2
		case *RLEGroup:
			s += 4 + int64(len(g.dict))*8
			for _, runs := range g.runs {
				s += 4 + int64(len(runs))*4
			}
		case *OLEGroup:
			s += 4 + int64(len(g.offsets)*len(g.cols))*8
			for _, offs := range g.offsets {
				s += 4 + int64(len(offs))*4
			}
		case *UCGroup:
			s += int64(len(g.data)) * 8
		}
	}
	return s
}

// Decode reconstructs a compressed matrix from its wire form. A payload
// that is not one Encode can produce is an error, never a panic: every
// length is checked against the bytes left before anything is allocated,
// and every column index, code, run and offset against the dimensions.
func Decode(b []byte) (*CMatrix, error) {
	r := &wireReader{b: b}
	if string(r.bytes(4)) != wireMagic {
		return nil, fmt.Errorf("compress: bad wire magic")
	}
	cm := &CMatrix{Rows: int(r.i32()), Cols: int(r.i32())}
	ng := int(r.i32())
	// A matrix has at least one row and one column (matrix.NewDense).
	if cm.Rows <= 0 || cm.Cols <= 0 || ng < 0 {
		r.fail("empty dimensions or negative group count")
	}
	for i := 0; i < ng && r.err == nil; i++ {
		kind := r.u8()
		cols := r.cols(cm.Cols)
		switch kind {
		case wireKindDDC:
			dict, n := r.dict(len(cols))
			codes := make([]uint16, r.count(cm.Rows, 2))
			counts := make([]float64, n)
			for j := range codes {
				c := r.u16()
				if int(c) >= n {
					r.fail("DDC code beyond its dictionary")
					break
				}
				codes[j] = c
				counts[c]++
			}
			cm.Groups = append(cm.Groups, &DDCGroup{dictionary: dictionary{cols, dict, counts}, codes: codes})
		case wireKindRLE:
			dict, n := r.dict(len(cols))
			runs := make([][]int32, n)
			counts := make([]float64, n)
			for t := range runs {
				runs[t] = make([]int32, 2*r.count(int(r.i32()), 8))
				for k := 0; k < len(runs[t]); k += 2 {
					start, length := r.i32(), r.i32()
					if start < 0 || length < 0 || int(start)+int(length) > cm.Rows {
						r.fail("RLE run outside the rows")
					}
					runs[t][k], runs[t][k+1] = start, length
					counts[t] += float64(length)
				}
			}
			cm.Groups = append(cm.Groups, &RLEGroup{dictionary: dictionary{cols, dict, counts}, runs: runs, rows: cm.Rows})
		case wireKindOLE:
			dict, n := r.dict(len(cols))
			offsets := make([][]int32, n)
			counts := make([]float64, n)
			nonZero := 0
			for t := range offsets {
				offsets[t] = make([]int32, r.count(int(r.i32()), 4))
				for k := range offsets[t] {
					if offsets[t][k] = r.i32(); offsets[t][k] < 0 || int(offsets[t][k]) >= cm.Rows {
						r.fail("OLE offset outside the rows")
					}
				}
				counts[t] = float64(len(offsets[t]))
				nonZero += len(offsets[t])
			}
			if nonZero > cm.Rows {
				r.fail("more OLE offsets than rows")
			}
			if zeros := cm.Rows - nonZero; zeros > 0 {
				dict, counts = append(dict, make([]float64, len(cols))...), append(counts, float64(zeros))
			}
			cm.Groups = append(cm.Groups, &OLEGroup{dictionary: dictionary{cols, dict, counts}, offsets: offsets, rows: cm.Rows})
		case wireKindUC:
			data := make([]float64, r.count(len(cols)*cm.Rows, 8))
			for j := range data {
				data[j] = r.f64()
			}
			cm.Groups = append(cm.Groups, &UCGroup{cols: cols, data: data, rows: cm.Rows})
		default:
			r.fail(fmt.Sprintf("unknown group kind %d", kind))
		}
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("trailing bytes")
	}
	if r.err != nil {
		return nil, r.err
	}
	return cm, nil
}

type wireReader struct {
	b   []byte
	err error
}

// fail records the first error of a payload; reads after it return zeros.
func (r *wireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("compress: invalid wire payload: %s", what)
	}
}

func (r *wireReader) bytes(n int) []byte {
	if r.err != nil || len(r.b) < n {
		r.fail("truncated")
		return make([]byte, n)
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// count returns n when n items of size bytes each fit into what is left of
// the payload, and 0 after recording an error otherwise: a length field
// never allocates more than the payload can back.
func (r *wireReader) count(n, size int) int {
	if r.err != nil || n < 0 || n > len(r.b)/size {
		r.fail("length beyond the payload")
		return 0
	}
	return n
}

func (r *wireReader) u8() byte    { return r.bytes(1)[0] }
func (r *wireReader) u16() uint16 { return binary.LittleEndian.Uint16(r.bytes(2)) }
func (r *wireReader) i32() int32  { return int32(binary.LittleEndian.Uint32(r.bytes(4))) }
func (r *wireReader) f64() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(r.bytes(8)))
}

// cols reads a group's column indexes: at least one, each below ncols.
func (r *wireReader) cols(ncols int) []int {
	cols := make([]int, r.count(int(r.i32()), 4))
	if len(cols) == 0 {
		r.fail("group without columns")
	}
	for i := range cols {
		if cols[i] = int(r.i32()); cols[i] < 0 || cols[i] >= ncols {
			r.fail("column index outside the matrix")
		}
	}
	return cols
}

// dict reads a dictionary of n tuples of ncols values, flat.
func (r *wireReader) dict(ncols int) (dict []float64, n int) {
	n = int(r.i32())
	if n < 0 || n > 1<<16 {
		r.fail("dictionary size outside 0..65536")
		return nil, 0
	}
	dict = make([]float64, r.count(n*ncols, 8))
	for i := range dict {
		dict[i] = r.f64()
	}
	if r.err != nil {
		return nil, 0
	}
	return dict, n
}

func putI32(b []byte, v int32) []byte { return binary.LittleEndian.AppendUint32(b, uint32(v)) }

func putCols(b []byte, cols []int) []byte {
	b = putI32(b, int32(len(cols)))
	for _, c := range cols {
		b = putI32(b, int32(c))
	}
	return b
}

// putDict writes a dictionary of n tuples, flat.
func putDict(b []byte, n int, dict []float64) []byte {
	b = putI32(b, int32(n))
	for _, v := range dict {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// denseWireScanCap bounds the dense sizes DenseWireBytes is willing to
// scan: shuffle partials are small (per-executor aggregates), and scanning
// multi-hundred-MB blocks per transfer would cost more than it saves.
const denseWireScanCap = 8 << 20

// DenseWireBytes estimates the dictionary-coded wire size of a small dense
// matrix with no attached compressed form — the shuffle-partial codec. It
// returns ok=false when the matrix is sparse, too large to scan, or the
// dictionary does not pay for itself.
func DenseWireBytes(m *matrix.Matrix) (int64, bool) {
	raw := m.SizeBytes()
	if m.IsSparse() || raw > denseWireScanCap || m.Rows*m.Cols == 0 {
		return 0, false
	}
	d := m.Dense()
	seen := make(map[float64]struct{}, 64)
	for _, v := range d {
		seen[v] = struct{}{}
		if len(seen) > 1<<16 {
			return 0, false
		}
	}
	bytes := int64(16) + int64(len(seen))*8 + int64(len(d))*2
	if bytes >= raw {
		return 0, false
	}
	return bytes, true
}
