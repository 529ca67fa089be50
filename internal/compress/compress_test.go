package compress

import (
	"math"
	"testing"
	"testing/quick"

	"sysml/internal/matrix"
)

// lowCardinality generates a matrix with few distinct values per column,
// the CLA-friendly case (Airline78-like).
func lowCardinality(rows, cols int, card int, seed int64) *matrix.Matrix {
	m := matrix.Rand(rows, cols, 1, 0, float64(card), seed)
	d := m.Dense()
	for i := range d {
		d[i] = math.Floor(d[i])
	}
	return m
}

func TestCompressRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *matrix.Matrix
	}{
		{"low-card", lowCardinality(500, 6, 10, 1)},
		{"sparse", matrix.Rand(500, 6, 0.1, 1, 3, 2)},
		{"high-card", matrix.Rand(300, 4, 1, -1, 1, 3)},
	} {
		cm := Compress(tc.m, DefaultOptions())
		dec := cm.Decompress()
		md := tc.m.ToDense()
		if !dec.EqualsApprox(md, 0) {
			t.Fatalf("%s: decompress mismatch", tc.name)
		}
		for _, rc := range [][2]int{{0, 0}, {10, 3}, {499 % tc.m.Rows, 2}} {
			if cm.At(rc[0], rc[1]) != md.At(rc[0], rc[1]) {
				t.Fatalf("%s: At(%d,%d) mismatch", tc.name, rc[0], rc[1])
			}
		}
	}
}

func TestCompressionRatioLowCardinality(t *testing.T) {
	m := lowCardinality(20000, 8, 12, 4)
	cm := Compress(m, DefaultOptions())
	if r := cm.CompressionRatio(); r < 2 {
		t.Fatalf("low-cardinality data should compress well, ratio = %v", r)
	}
	// High-cardinality data must fall back without breaking correctness.
	hc := matrix.Rand(2000, 3, 1, -1, 1, 5)
	cmhc := Compress(hc, Options{CoCode: true, MaxDistinct: 64})
	if !cmhc.Decompress().EqualsApprox(hc, 0) {
		t.Fatal("UC fallback round trip failed")
	}
	hasUC := false
	for _, g := range cmhc.Groups {
		if _, ok := g.(*UCGroup); ok {
			hasUC = true
		}
	}
	if !hasUC {
		t.Fatal("expected uncompressed fallback group")
	}
}

func TestSumAndSumSq(t *testing.T) {
	f := func(seed int64) bool {
		m := lowCardinality(300, 5, 7, seed)
		cm := Compress(m, DefaultOptions())
		wantSum := matrix.Sum(m)
		wantSq := matrix.Agg(matrix.AggSumSq, matrix.DirAll, m).Scalar()
		return math.Abs(cm.Sum()-wantSum) < 1e-6*math.Abs(wantSum)+1e-9 &&
			math.Abs(cm.SumSq()-wantSq) < 1e-6*wantSq+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// aggCell is sum(f(X)) over the dictionaries, the way the runtime's
// dictionary binding aggregates a cell body: f once per tuple value (Dict),
// weighed by the tuple's count.
func aggCell(cm *CMatrix, f func(float64) float64) (s float64) {
	for _, g := range cm.Groups {
		values, counts := Dict(g)
		w := len(g.Cols())
		for k, v := range values {
			s += f(v) * counts[k/w]
		}
	}
	return s
}

func TestAggCellMatchesDense(t *testing.T) {
	m := lowCardinality(400, 6, 9, 6)
	cm := Compress(m, DefaultOptions())
	got := aggCell(cm, func(v float64) float64 { return v*v + 2*v })
	var want float64
	md := m.ToDense().Dense()
	for _, v := range md {
		want += v*v + 2*v
	}
	if math.Abs(got-want) > 1e-6*math.Abs(want) {
		t.Fatalf("fold over Dict = %v, want %v", got, want)
	}
}

func TestRLESelection(t *testing.T) {
	// Long runs: a sorted column compresses to RLE.
	rows := 10000
	m := matrix.NewDense(rows, 1)
	d := m.Dense()
	for i := range d {
		d[i] = float64(i / 1000) // 10 runs of length 1000
	}
	cm := Compress(m, DefaultOptions())
	if len(cm.Groups) != 1 {
		t.Fatalf("expected 1 group, got %d", len(cm.Groups))
	}
	if _, ok := cm.Groups[0].(*RLEGroup); !ok {
		t.Fatalf("expected RLE group, got %T", cm.Groups[0])
	}
	if !cm.Decompress().EqualsApprox(m, 0) {
		t.Fatal("RLE round trip failed")
	}
	if cm.CompressionRatio() < 50 {
		t.Fatalf("run data should compress heavily, ratio %v", cm.CompressionRatio())
	}
}

func TestCoCoding(t *testing.T) {
	// Two binary columns co-code into one group with ≤4 tuples.
	rows := 5000
	m := matrix.NewDense(rows, 2)
	d := m.Dense()
	for i := 0; i < rows; i++ {
		d[i*2] = float64(i % 2)
		d[i*2+1] = float64((i / 2) % 2)
	}
	cm := Compress(m, DefaultOptions())
	if len(cm.Groups) != 1 {
		t.Fatalf("expected co-coded single group, got %d groups", len(cm.Groups))
	}
	if nd := cm.Groups[0].NumDistinct(); nd > 4 {
		t.Fatalf("co-coded dictionary too large: %d", nd)
	}
	if !cm.Decompress().EqualsApprox(m, 0) {
		t.Fatal("co-coded round trip failed")
	}
	// Without co-coding: two groups.
	cm2 := Compress(m, Options{CoCode: false, MaxDistinct: 1 << 16})
	if len(cm2.Groups) != 2 {
		t.Fatalf("expected 2 groups without co-coding, got %d", len(cm2.Groups))
	}
}

func TestSparseInputCompression(t *testing.T) {
	m := matrix.Rand(1000, 10, 0.05, 1, 2, 7)
	cm := Compress(m, DefaultOptions())
	if !cm.Decompress().EqualsApprox(m.ToDense(), 0) {
		t.Fatal("sparse input round trip failed")
	}
	want := matrix.Sum(m)
	if math.Abs(cm.Sum()-want) > 1e-9*math.Abs(want)+1e-9 {
		t.Fatal("sparse sum mismatch")
	}
}

func TestOLESelectionForSparse(t *testing.T) {
	m := matrix.Rand(5000, 4, 0.1, 1, 4, 9)
	md := m.ToDense()
	d := md.Dense()
	for i := range d {
		d[i] = math.Floor(d[i]) // few distinct non-zero values
	}
	cm := Compress(md, Options{CoCode: false, MaxDistinct: 1 << 16})
	hasOLE := false
	for _, g := range cm.Groups {
		if _, ok := g.(*OLEGroup); ok {
			hasOLE = true
		}
	}
	if !hasOLE {
		t.Fatal("sparse columns should select OLE groups")
	}
	if !cm.Decompress().EqualsApprox(md, 0) {
		t.Fatal("OLE round trip failed")
	}
	wantSum := matrix.Sum(md)
	if math.Abs(cm.Sum()-wantSum) > 1e-9*math.Abs(wantSum)+1e-9 {
		t.Fatal("OLE sum mismatch")
	}
	wantSq := matrix.Agg(matrix.AggSumSq, matrix.DirAll, md).Scalar()
	if math.Abs(cm.SumSq()-wantSq) > 1e-9*wantSq {
		t.Fatal("OLE sumsq mismatch")
	}
	// Non-sparse-safe function over the dictionary must include the
	// implicit zero tuple.
	got := aggCell(cm, func(v float64) float64 { return v + 1 })
	want := float64(md.Rows*md.Cols) + wantSum
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("OLE fold over Dict with zeros = %v, want %v", got, want)
	}
	// Sparse data compresses far better than dense codes.
	if cm.CompressionRatio() < 3 {
		t.Fatalf("OLE compression ratio %v too low", cm.CompressionRatio())
	}
}
