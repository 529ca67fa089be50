package compress

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"sysml/internal/data"
	"sysml/internal/matrix"
	"sysml/internal/par"
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

// testPools are made once: a pool's workers live as long as the process.
var testPools = []*par.Pool{par.NewPool(1), par.NewPool(2), par.NewPool(4)}

// referenceCases are the inputs Compress is held to compressReference on:
// the benchmark's kinds of table, degenerate shapes, and the 16-bit
// dictionary boundary. None holds a NaN or a -0 (compressReference).
func referenceCases() map[string]*matrix.Matrix {
	mnist := data.MnistLike(120, 71)
	boundary := matrix.NewDense(1<<16+1, 2)
	bd := boundary.Dense()
	for r := 0; r <= 1<<16; r++ {
		bd[2*r] = float64(r % (1 << 16)) // exactly 65,536 distinct values: DDC
		bd[2*r+1] = float64(r) / 3       // 65,537: UC
	}
	constant := matrix.NewDense(3000, 4)
	for i := range constant.Dense() {
		constant.Dense()[i] = 7
	}
	return map[string]*matrix.Matrix{
		"codes":       data.CodesLike(3000, 72),
		"mnist-dense": mnist.ToDense(),
		"mnist-csr":   mnist,
		"airline":     data.AirlineLike(3000, 73),
		"constant":    constant,
		"zeros":       matrix.NewDense(3000, 5),
		"one-row":     lowCardinality(1, 40, 5, 74),
		"one-column":  lowCardinality(10000, 1, 30, 75),
		"boundary":    boundary,
	}
}

// TestCompressMatchesReference: Compress builds, on every input, option set
// and worker count, the groups compressReference builds — same encoding,
// columns, dictionary tuples in order, codes, runs, offsets, counts, zero
// tuple and SizeBytes — which is what keeps every dictionary sum and every
// plan priced on a compressed size what it was.
func TestCompressMatchesReference(t *testing.T) {
	for name, m := range referenceCases() {
		optSets := []Options{DefaultOptions(), {CoCode: false, MaxDistinct: 1 << 16}, {CoCode: true, MaxDistinct: 64}}
		if name == "boundary" {
			optSets = optSets[:1] // no pair forms there, and at 64 both columns are UC
		}
		for _, opts := range optSets {
			want := compressReference(m, opts)
			for _, p := range testPools {
				opts.Pool = p
				if err := sameGroups(Compress(m, opts), want); err != nil {
					t.Errorf("%s, co-coding %v, at most %d distinct, %d workers: %v",
						name, opts.CoCode, opts.MaxDistinct, p.MaxWorkers(), err)
				}
			}
		}
	}
}

// sameGroups reports the first difference between cm and the groups of
// compressReference.
func sameGroups(cm *CMatrix, want []refGroup) error {
	if len(cm.Groups) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(cm.Groups), len(want))
	}
	var size int64
	for i, g := range cm.Groups {
		w := want[i]
		size += w.sizeBytes()
		kind := map[reflect.Type]string{
			reflect.TypeOf(&DDCGroup{}): "DDC", reflect.TypeOf(&RLEGroup{}): "RLE",
			reflect.TypeOf(&OLEGroup{}): "OLE", reflect.TypeOf(&UCGroup{}): "UC",
		}[reflect.TypeOf(g)]
		if kind != w.kind || !reflect.DeepEqual(g.Cols(), w.cols) {
			return fmt.Errorf("group %d is %s over %v, want %s over %v", i, kind, g.Cols(), w.kind, w.cols)
		}
		if g.SizeBytes() != w.sizeBytes() {
			return fmt.Errorf("group %d: SizeBytes %d, want %d", i, g.SizeBytes(), w.sizeBytes())
		}
		tuples, counts := w.dict, w.counts
		if w.kind == "OLE" {
			tuples, counts = append(tuples, w.zeroTuple), append(counts, w.zeroCount)
		}
		var gotTuples [][]float64
		var gotCounts []int
		if w.kind != "UC" {
			g.ForEachDistinct(func(vals []float64, count int) {
				gotTuples, gotCounts = append(gotTuples, append([]float64(nil), vals...)), append(gotCounts, count)
			})
		}
		if !reflect.DeepEqual(gotTuples, tuples) || !reflect.DeepEqual(gotCounts, counts) {
			return fmt.Errorf("group %d: tuples %v with counts %v, want %v with %v", i, gotTuples, gotCounts, tuples, counts)
		}
		// Printed, so that an empty slice and a nil one read the same.
		var payload, wantPayload string
		switch g := g.(type) {
		case *DDCGroup:
			payload, wantPayload = fmt.Sprint(g.codes), fmt.Sprint(w.codes)
		case *RLEGroup:
			payload, wantPayload = fmt.Sprint(g.runs), fmt.Sprint(w.runs)
		case *OLEGroup:
			payload, wantPayload = fmt.Sprint(g.offsets), fmt.Sprint(w.offsets)
		case *UCGroup:
			payload, wantPayload = fmt.Sprint(g.data), fmt.Sprint(w.data)
		}
		if payload != wantPayload {
			return fmt.Errorf("group %d: the %s payload differs", i, kind)
		}
	}
	if cm.SizeBytes() != size {
		return fmt.Errorf("SizeBytes %d, want %d", cm.SizeBytes(), size)
	}
	return nil
}

// refGroup is a column group as compressReference builds it.
type refGroup struct {
	kind      string // DDC, RLE, OLE or UC
	cols      []int
	dict      [][]float64 // tuple per code; OLE: the non-zero tuples
	codes     []uint16
	runs      [][]int32
	offsets   [][]int32
	counts    []int
	zeroCount int
	zeroTuple []float64
	data      []float64
}

// sizeBytes is the group's SizeBytes as its encoding priced it.
func (g refGroup) sizeBytes() int64 {
	s := int64(len(g.dict)*len(g.cols))*8 + int64(len(g.counts))*8
	switch g.kind {
	case "DDC":
		s += int64(len(g.codes)) * 2
	case "RLE":
		for _, r := range g.runs {
			s += int64(len(r)) * 4
		}
	case "OLE":
		for _, o := range g.offsets {
			s += int64(len(o))*4 + oleListHeaderBytes
		}
	case "UC":
		s = int64(len(g.data)) * 8
	}
	return s
}

// compressReference is Compress as it was before columns were coded
// through per-column tables: a transposed copy of the input, a map per
// column to count distinct values, and a map from a string of a tuple's
// bits to its code per group. Its one deliberate difference from Compress:
// refCountDistinct compares values as float64s, so that every NaN is a new
// value and -0 == +0 there, where the groups key tuples by their bits — the
// inputs it is compared on hold neither.
func compressReference(m *matrix.Matrix, opts Options) []refGroup {
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
		distinct[j] = refCountDistinct(cols[j])
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
	var groups []refGroup
	for _, gc := range groupCols {
		groups = append(groups, refBuildGroup(gc, cols, m.Rows, opts))
	}
	return groups
}

func refCountDistinct(col []float64) int {
	seen := map[float64]bool{}
	for _, v := range col {
		seen[v] = true
		if len(seen) > 1<<17 {
			break
		}
	}
	return len(seen)
}

// refBuildGroup selects the best encoding for one column group.
func refBuildGroup(gc []int, cols [][]float64, rows int, opts Options) refGroup {
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
		return refGroup{kind: "UC", cols: gc, data: data}
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
		g := refGroup{
			kind: "OLE", cols: gc,
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
		return refGroup{kind: "RLE", cols: gc, dict: dict, runs: runsPer, counts: counts}
	}
	return refGroup{kind: "DDC", cols: gc, dict: dict, codes: codes, counts: counts}
}

// sameBits fails the test at the first cell of got whose bits are not
// want's.
func sameBits(t *testing.T, what string, got, want *matrix.Matrix) {
	t.Helper()
	w := want.ToDense().Dense()
	for i, v := range got.Dense() {
		if math.Float64bits(v) != math.Float64bits(w[i]) {
			t.Fatalf("%s: cell %d is %v (%#x), want %v (%#x)", what, i, v, math.Float64bits(v), w[i], math.Float64bits(w[i]))
		}
	}
}

// roundTrips checks that cm decompresses to m bit for bit, directly and
// through the wire format.
func roundTrips(t *testing.T, cm *CMatrix, m *matrix.Matrix) {
	t.Helper()
	sameBits(t, "Decompress", cm.Decompress(), m)
	buf := Encode(cm)
	if int64(len(buf)) != WireSizeBytes(cm) {
		t.Fatalf("Encode wrote %d bytes, WireSizeBytes says %d", len(buf), WireSizeBytes(cm))
	}
	dec, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "wire round trip", dec.Decompress(), m)
}

// TestCompressKeysValuesByBits: a value is its bit pattern. An all-NaN
// column is one tuple, with more rows than a dictionary has codes, and
// co-codes like a constant; -0 and +0 are two tuples, and a column whose
// first zero is a -0 is not taken for the implicit zero of an OLE group;
// every value comes back bit for bit.
func TestCompressKeysValuesByBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	otherNaN := math.Float64frombits(0xfff8000000000002)
	rows := 70000
	m := matrix.NewDense(rows, 5)
	d := m.Dense()
	for r := 0; r < rows; r++ {
		row := d[5*r : 5*r+5]
		row[0] = math.NaN()
		row[1] = float64(r % 3)
		if r%2 == 0 {
			row[2] = negZero
		}
		row[3] = []float64{otherNaN, math.NaN(), math.Inf(1), negZero}[r%4]
		if r%10 == 0 {
			row[4] = negZero
		}
	}
	cm := Compress(m, DefaultOptions())
	want := []struct {
		cols     []int
		distinct int
	}{{[]int{0, 1}, 3}, {[]int{2, 3}, 4}, {[]int{4}, 2}}
	if len(cm.Groups) != len(want) {
		t.Fatalf("%d groups, want %d", len(cm.Groups), len(want))
	}
	for i, w := range want {
		g := cm.Groups[i]
		if !reflect.DeepEqual(g.Cols(), w.cols) || g.NumDistinct() != w.distinct {
			t.Errorf("group %d: %T over %v with %d tuples, want %v with %d", i, g, g.Cols(), g.NumDistinct(), w.cols, w.distinct)
		}
	}
	if _, ok := cm.Groups[2].(*OLEGroup); !ok {
		t.Errorf("the column of 90%% +0 is %T, want OLE", cm.Groups[2])
	}
	roundTrips(t, cm, m)
	single := Compress(m, Options{MaxDistinct: 1 << 16})
	if n := single.Groups[0].NumDistinct(); n != 1 {
		t.Errorf("the NaN column alone has %d tuples, want 1", n)
	}
	if n := single.Groups[2].NumDistinct(); n != 2 {
		t.Errorf("the column of -0 and +0 has %d tuples, want 2", n)
	}
	roundTrips(t, single, m)
}

// fuzzSalt are the values a fuzzed byte below len(fuzzSalt) stands for.
var fuzzSalt = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.Float64frombits(0xfff8000000000002)}

// FuzzCompress: a small dense matrix of fuzzed bytes with NaN, ±Inf and ±0
// salt, repeated down the rows so that inputs reach the parallel paths,
// compresses without a panic, comes back bit for bit directly and through
// the wire format, and gives the same groups on one worker and on two.
func FuzzCompress(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 3, 4, 5, 6, 7, 8}, uint16(0), false)
	f.Add([]byte{15, 0, 3, 4, 9, 9, 9, 200, 4, 4, 4, 4, 1, 2, 3, 4, 5, 9, 9, 4, 4, 4, 4, 7, 3, 4, 4, 4, 4, 4, 4, 4, 4}, uint16(9000), false)
	f.Add([]byte{3, 5, 6, 7, 8, 9, 10, 11, 12}, uint16(300), true)
	f.Fuzz(func(t *testing.T, cells []byte, repeat uint16, narrow bool) {
		if len(cells) < 2 {
			return
		}
		cols := int(cells[0])%16 + 1
		cells = cells[1:]
		block := len(cells) / cols * cols
		if block == 0 {
			return
		}
		m := matrix.NewDense(block/cols*(int(repeat)%(1<<14)+1), cols)
		d := m.Dense()
		for i := range d {
			b := cells[i%block]
			d[i] = float64(b%32) / 4
			if int(b) < len(fuzzSalt) {
				d[i] = fuzzSalt[b]
			}
		}
		opts := DefaultOptions()
		if narrow {
			opts.MaxDistinct = 4
		}
		var cms []*CMatrix
		for _, p := range testPools[:2] {
			opts.Pool = p
			cms = append(cms, Compress(m, opts))
		}
		// The wire form holds every group's type, columns and payload bit for
		// bit (reflect.DeepEqual would tell a NaN from itself).
		if !bytes.Equal(Encode(cms[0]), Encode(cms[1])) || cms[0].SizeBytes() != cms[1].SizeBytes() {
			t.Fatal("one worker and two built different groups")
		}
		roundTrips(t, cms[0], m)
	})
}

// BenchmarkCompress times Compress on the benchmark's compressed inputs at
// their sizes (MB/s of dense input): the Mnist-like table of sumsq.ole, the
// codes table of sumsq.cla, autoenc.mnist's X, a codes table of the
// algorithms, and a serve request's 128×64.
func BenchmarkCompress(b *testing.B) {
	for _, in := range []struct {
		name string
		m    func() *matrix.Matrix
	}{
		{"mnist-20000x784", func() *matrix.Matrix { return data.MnistLike(20000, 11).ToDense() }},
		{"codes-100000x29", func() *matrix.Matrix { return data.CodesLike(100000, 12) }},
		{"mnist-3000x784", func() *matrix.Matrix { return data.MnistLike(3000, 67).ToDense() }},
		{"codes-25000x29", func() *matrix.Matrix { return data.CodesLike(25000, 4) }},
		{"codes-128x64", func() *matrix.Matrix { return lowCardinality(128, 64, 16, 5) }},
	} {
		b.Run(in.name, func(b *testing.B) {
			m := in.m()
			b.SetBytes(m.SizeBytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Compress(m, DefaultOptions())
			}
		})
	}
}
