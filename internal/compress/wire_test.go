package compress

import (
	"fmt"
	"math"
	"testing"

	"sysml/internal/matrix"
)

// wireCases cover every group encoding: DDC (low cardinality), RLE (sorted
// runs), OLE (sparse with few distinct non-zeros), UC (random), co-coded
// groups, and a constant column.
func wireCases() map[string]*matrix.Matrix {
	runs := matrix.NewDense(4000, 1)
	rd := runs.Dense()
	for i := range rd {
		rd[i] = float64(i / 400)
	}
	constant := matrix.NewDense(300, 2)
	cd := constant.Dense()
	for i := 0; i < 300; i++ {
		cd[2*i] = 7
	}
	sparse := matrix.Rand(2000, 3, 0.08, 1, 4, 41)
	sd := sparse.ToDense()
	for i, v := range sd.Dense() {
		sd.Dense()[i] = math.Floor(v)
	}
	return map[string]*matrix.Matrix{
		"low-card": lowCardinality(800, 5, 9, 40),
		"runs":     runs,
		"constant": constant,
		"ole":      sd,
		"random":   matrix.Rand(200, 4, 1, -1, 1, 42),
	}
}

// TestWireSizeBytesByHand pins the priced size of every group kind to the
// byte counts of WireSizeBytes's layout, worked out by hand for 100 rows: a
// 16-byte header, then per group a kind byte, its column count and columns,
// and the payload.
func TestWireSizeBytesByHand(t *testing.T) {
	const rows = 100
	columns := func(fs ...func(r int) float64) *matrix.Matrix {
		m := matrix.NewDense(rows, len(fs))
		for r := 0; r < rows; r++ {
			for j, f := range fs {
				m.Dense()[r*len(fs)+j] = f(r)
			}
		}
		return m
	}
	ddc := func(r int) float64 { return float64(r % 3) }
	rle := func(r int) float64 { return float64(r/50 + 1) }
	ole := func(r int) float64 { return float64(5 * (1 - min(r%10, 1))) }
	uc := func(r int) float64 { return float64(r) }
	single := Options{MaxDistinct: 4}
	for _, c := range []struct {
		name string
		m    *matrix.Matrix
		opts Options
		kind string
		want int64
	}{
		// ndist, three 8-byte values, 100 2-byte codes.
		{"DDC", columns(ddc), single, "*compress.DDCGroup", 16 + 9 + 4 + 3*8 + rows*2},
		// ndist, two values, per tuple a run count and one (start, length) run.
		{"RLE", columns(rle), single, "*compress.RLEGroup", 16 + 9 + 4 + 2*8 + 2*(4+2*4)},
		// ndist, the one non-zero value, its offset count and 10 offsets; the
		// zero tuple holding the other 90 rows is implicit.
		{"OLE", columns(ole), single, "*compress.OLEGroup", 16 + 9 + 4 + 1*8 + (4 + 10*4)},
		// 100 distinct values are over the dictionary limit: raw doubles.
		{"UC", columns(uc), single, "*compress.UCGroup", 16 + 9 + rows*8},
		// A co-coded pair: two column indexes, three tuples of two values.
		{"DDC pair", columns(ddc, func(r int) float64 { return 2 * ddc(r) }), DefaultOptions(), "*compress.DDCGroup",
			16 + (1 + 4 + 2*4) + 4 + 3*2*8 + rows*2},
		{"all four", columns(ddc, rle, ole, uc), single, "",
			16 + (9 + 4 + 3*8 + rows*2) + (9 + 4 + 2*8 + 2*(4+2*4)) + (9 + 4 + 1*8 + (4 + 10*4)) + (9 + rows*8)},
	} {
		cm := Compress(c.m, c.opts)
		if c.kind != "" {
			if len(cm.Groups) != 1 || fmt.Sprintf("%T", cm.Groups[0]) != c.kind {
				t.Fatalf("%s: groups %v, want one %s", c.name, Summary(cm), c.kind)
			}
		}
		if got := WireSizeBytes(cm); got != c.want {
			t.Errorf("%s: WireSizeBytes = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestDenseWireBytes(t *testing.T) {
	// Low-cardinality payloads win; random doubles must decline so traffic
	// accounting never undercharges incompressible shuffles.
	lc := lowCardinality(3000, 4, 6, 44)
	w, ok := DenseWireBytes(lc)
	if !ok || w >= lc.SizeBytes() {
		t.Fatalf("low-card dict codec: ok=%v bytes=%d (raw %d)", ok, w, lc.SizeBytes())
	}
	if _, ok := DenseWireBytes(matrix.Rand(500, 4, 1, -1, 1, 45)); ok {
		t.Fatal("random payload should not claim a dict-codec win")
	}
	if _, ok := DenseWireBytes(matrix.Rand(500, 4, 0.05, 1, 2, 46)); ok {
		t.Fatal("sparse matrices are out of scope for the dense codec")
	}
}

func TestEstimateRatio(t *testing.T) {
	lc := lowCardinality(5000, 6, 8, 47)
	if est := EstimateRatio(lc, 0); est.Ratio < 2 {
		t.Fatalf("low-cardinality estimate ratio %.2f, want >= 2", est.Ratio)
	}
	rnd := matrix.Rand(5000, 6, 1, -1, 1, 48)
	if est := EstimateRatio(rnd, 0); est.Ratio > 1.5 {
		t.Fatalf("random data estimate ratio %.2f, want ~1", est.Ratio)
	}
	constant := matrix.NewDense(4000, 3)
	if est := EstimateRatio(constant, 0); est.Ratio < 10 {
		t.Fatalf("constant columns estimate ratio %.2f, want large", est.Ratio)
	}
}

func TestOLESizeBytesCountsOffsetLists(t *testing.T) {
	// Offset lists carry a per-list header: total size must exceed the raw
	// offset payload (the seed undercounted exactly this).
	m := matrix.Rand(3000, 1, 0.1, 1, 3, 49)
	md := m.ToDense()
	for i, v := range md.Dense() {
		md.Dense()[i] = math.Floor(v)
	}
	cm := Compress(md, Options{CoCode: false, MaxDistinct: 1 << 16})
	ole, ok := cm.Groups[0].(*OLEGroup)
	if !ok {
		t.Fatalf("expected OLE group, got %T", cm.Groups[0])
	}
	var offsets int64
	raw := int64(0)
	for _, o := range ole.offsets {
		raw += int64(len(o)) * 4
		offsets++
	}
	minWant := raw + offsets*oleListHeaderBytes
	if ole.SizeBytes() < minWant {
		t.Fatalf("OLE SizeBytes %d misses offset-list headers (want >= %d)", ole.SizeBytes(), minWant)
	}
}

func TestAttachRegistry(t *testing.T) {
	m := lowCardinality(400, 3, 5, 50)
	if Of(m) != nil {
		t.Fatal("fresh matrix should have no attachment")
	}
	cm := Compress(m, DefaultOptions())
	Attach(m, cm)
	if Of(m) != cm {
		t.Fatal("Attach/Of round trip failed")
	}
	Drop(m)
	if Of(m) != nil {
		t.Fatal("Drop left the attachment")
	}
	Decline(m, "test reason")
	if r, ok := DeclineReason(m); !ok || r != "test reason" {
		t.Fatalf("DeclineReason = %q, %v", r, ok)
	}
	if Of(m) != nil {
		t.Fatal("a declined matrix must not report a compressed form")
	}
	Drop(m)
}

func TestReleaseDropsAttachment(t *testing.T) {
	m := matrix.NewDense(300, 2)
	Attach(m, Compress(m, DefaultOptions()))
	m.Release()
	if Of(m) != nil {
		t.Fatal("Release must drop the attachment (storage is recycled)")
	}
	d := matrix.NewDense(300, 2)
	Decline(d, "estimated ratio 1.00 < 3.00")
	d.Release()
	if _, ok := DeclineReason(d); ok {
		t.Fatal("Release must drop the decline")
	}
}

func TestSummary(t *testing.T) {
	m := lowCardinality(500, 4, 6, 51)
	cm := Compress(m, Options{CoCode: false, MaxDistinct: 1 << 16})
	if s := Summary(cm); s == "" {
		t.Fatal("Summary empty for a compressed matrix")
	}
}

// mapInto writes fn of every value of the group's columns into the full-width
// row-major dst, the way the runtime's dictionary binding maps a cell body:
// fn once per dictionary value (Dict), the results scattered by row code
// (Codes, Scatter) in two row ranges.
func mapInto(t *testing.T, g ColGroup, dst []float64, rows, stride int, fn func(float64) float64) {
	cols := g.Cols()
	values, counts := Dict(g)
	var covered float64
	for _, c := range counts {
		covered += c
	}
	if len(values) != len(counts)*len(cols) || int(covered) != rows {
		t.Fatalf("Dict holds %d values, %d tuples covering %v of %d rows", len(values), len(counts), covered, rows)
	}
	table := make([]float64, len(values)) // Dict's arrays are shared: map into a copy
	for k, v := range values {
		table[k] = fn(v)
	}
	codes := Codes(g)
	Scatter(codes, table, len(cols), dst, stride, cols, 0, rows/2)
	Scatter(codes, table, len(cols), dst, stride, cols, rows/2, rows)
}

func TestMapIntoAndCodesMatchValueAt(t *testing.T) {
	fn := func(v float64) float64 { return 2*v + 1 } // not sparse safe
	for name, m := range wireCases() {
		cm := Compress(m, DefaultOptions())
		for _, g := range cm.Groups {
			cols := g.Cols()
			dst := make([]float64, cm.Rows*cm.Cols)
			mapInto(t, g, dst, cm.Rows, cm.Cols, fn)
			for r := 0; r < cm.Rows; r++ {
				for j, c := range cols {
					if want := fn(g.ValueAt(r, j)); dst[r*cm.Cols+c] != want {
						t.Fatalf("%s: mapped (%d,%d) = %v, want %v", name, r, c, dst[r*cm.Cols+c], want)
					}
				}
			}
			codes := Codes(g)
			if codes == nil {
				continue // UC has no dictionary: row r is tuple r
			}
			// Codes must index tuples in ForEachDistinct order.
			var tuples [][]float64
			g.ForEachDistinct(func(vals []float64, count int) {
				tuples = append(tuples, append([]float64(nil), vals...))
			})
			for r := 0; r < cm.Rows; r++ {
				tup := tuples[codes[r]]
				for j := range cols {
					if tup[j] != g.ValueAt(r, j) {
						t.Fatalf("%s: Codes row %d tuple mismatch", name, r)
					}
				}
			}
		}
	}
}
