package compress

// Execution helpers for the runtime's dictionary binding: a fused body runs
// once over a group's dictionary and the results are then weighed by the
// occurrence counts or fanned out by row code. These helpers keep the
// encoding-specific iteration (codes, runs, offset lists) inside the
// package, next to the group representations.

// Dict returns the group's dictionary: its tuples row-major in code order
// (tuple k at values[k*len(g.Cols()):]) and their occurrence counts. OLE's
// implicit zero tuple is the last one; an uncompressed group is its own
// dictionary, one tuple of count 1 per row. A dictionary-coded group hands
// out the arrays it stores — they are shared between callers and read-only.
func Dict(g ColGroup) (values, counts []float64) {
	if d, ok := g.(interface{ tuples() *dictionary }); ok {
		t := d.tuples()
		return t.dict, t.counts
	}
	g.ForEachDistinct(func(tuple []float64, count int) {
		values = append(values, tuple...)
		counts = append(counts, float64(count))
	})
	return values, counts
}

// Scatter fans a per-tuple table (w values per tuple, in Dict order) out by
// row code: for the rows [lo, hi), value j of row r's tuple goes to
// dst[r*stride+cols[j]], or to dst[r*stride+j] without cols. codes is
// Codes(g), nil for an uncompressed group (row r is tuple r).
func Scatter(codes []int32, table []float64, w int, dst []float64, stride int, cols []int, lo, hi int) {
	for r := lo; r < hi; r++ {
		k := r
		if codes != nil {
			k = int(codes[r])
		}
		t, base := table[k*w:(k+1)*w], r*stride
		if cols == nil {
			copy(dst[base:], t)
			continue
		}
		for j, c := range cols {
			dst[base+c] = t[j]
		}
	}
}

// Codes returns a per-row dictionary-code vector for the group, with codes
// in the order ForEachDistinct visits tuples (OLE's implicit zero tuple
// gets the last code). Uncompressed groups return nil — they have no
// dictionary to index. The dictionary binding uses this, once per group, to
// scatter per-tuple results back to output rows (Scatter).
func Codes(g ColGroup) []int32 {
	switch g := g.(type) {
	case *DDCGroup:
		out := make([]int32, len(g.codes))
		for i, c := range g.codes {
			out[i] = int32(c)
		}
		return out
	case *RLEGroup:
		out := make([]int32, g.rows)
		for code, runs := range g.runs {
			for k := 0; k < len(runs); k += 2 {
				start, n := int(runs[k]), int(runs[k+1])
				for i := 0; i < n; i++ {
					out[start+i] = int32(code)
				}
			}
		}
		return out
	case *OLEGroup:
		zeroCode := int32(len(g.offsets))
		out := make([]int32, g.rows)
		for i := range out {
			out[i] = zeroCode
		}
		for code, offs := range g.offsets {
			for _, o := range offs {
				out[o] = int32(code)
			}
		}
		return out
	}
	return nil
}
