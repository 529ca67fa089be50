package compress

import (
	"bytes"
	"math"
	"runtime"
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

func TestWireRoundTrip(t *testing.T) {
	for name, m := range wireCases() {
		cm := Compress(m, DefaultOptions())
		buf := Encode(cm)
		if got, want := int64(len(buf)), WireSizeBytes(cm); got != want {
			t.Fatalf("%s: WireSizeBytes = %d, encoded length = %d", name, want, got)
		}
		dec, err := Decode(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if dec.Rows != cm.Rows || dec.Cols != cm.Cols {
			t.Fatalf("%s: decoded shape %dx%d, want %dx%d", name, dec.Rows, dec.Cols, cm.Rows, cm.Cols)
		}
		if !dec.Decompress().EqualsApprox(m.ToDense(), 0) {
			t.Fatalf("%s: wire round trip changed values", name)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for name, b := range map[string][]byte{
		"empty":     nil,
		"magic":     []byte("NOPE"),
		"truncated": Encode(Compress(lowCardinality(100, 2, 4, 43), DefaultOptions()))[:20],
		"rows -1":   []byte(hostileNegativeRows),
		"2^31 rows": []byte(hostileHugeUC),
	} {
		if _, err := Decode(b); err == nil {
			t.Fatalf("%s: Decode accepted invalid payload", name)
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

// Two 25-byte headers that once crashed Decode: rows = -1 (makeslice
// panic) and 2^31 rows claimed for one uncompressed group (out of memory).
const (
	hostileNegativeRows = "CLA1\xff\xff\xff\xff\x01\x00\x00\x00\x01\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"
	hostileHugeUC       = "CLA1\x00\x00\x00\x7f\x01\x00\x00\x00\x01\x00\x00\x00\x03\x01\x00\x00\x00\x00\x00\x00\x00"
)

// FuzzWireDecode feeds Decode arbitrary payloads, seeded with the wire form
// of every group kind and the hostile headers: it never panics, it
// allocates no more than the payload can back, and a payload it accepts
// re-encodes to itself and decompresses.
func FuzzWireDecode(f *testing.F) {
	for _, m := range wireCases() {
		f.Add(Encode(Compress(m, DefaultOptions())))
	}
	f.Add([]byte(hostileNegativeRows))
	f.Add([]byte(hostileHugeUC))
	f.Fuzz(func(t *testing.T, b []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		cm, err := Decode(b)
		runtime.ReadMemStats(&ms)
		if grew := ms.TotalAlloc - before; grew > 64*uint64(len(b))+1<<16 {
			t.Fatalf("Decode of %d bytes allocated %d", len(b), grew)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(Encode(cm), b) {
			t.Fatal("Decode accepted a payload that does not re-encode to itself")
		}
		if cm.Rows*cm.Cols <= 1<<16 {
			cm.Decompress()
		}
	})
}
