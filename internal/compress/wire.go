package compress

import "sysml/internal/matrix"

// WireSizeBytes returns what a transfer of cm is charged: the dist backend
// prices compressed broadcast and shuffle traffic at the bytes of cm's
// column groups in this layout, not at the dense size. Counts, the zero
// tuple of an OLE group and other state derivable from the rest are not
// charged.
//
//	"CLA1" | rows i32 | cols i32 | ngroups i32
//	per group: kind u8 | ncols i32 | cols []i32 | payload
//	  DDC: ndist i32 | dict []f64 | codes []u16
//	  RLE: ndist i32 | dict []f64 | per tuple: nruns i32, runs []i32
//	  OLE: ndist i32 | dict []f64 | per tuple: noff i32, offsets []i32
//	  UC:  data []f64 (column-major)
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
