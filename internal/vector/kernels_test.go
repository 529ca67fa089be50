package vector

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Every assembly kernel against its portable Go twin, both called directly:
// there is no switch that turns the assembly off, so the tests reach under
// the exported wrappers. Operands live in the middle of a poisoned buffer
// (NaN either side of the sources, a marker either side of the
// destination): a kernel that reads one element too many turns its result
// into NaN, one that writes one too many moves a marker.

const (
	pad    = 8 // poisoned elements either side of an operand
	marker = -7.25e300
)

// operand is n values at offset off inside a poisoned buffer.
type operand struct {
	buf    []float64
	off, n int
}

func newOperand(off, n int, poison float64, fill func(i int) float64) operand {
	o := operand{buf: make([]float64, pad+off+n+pad), off: pad + off, n: n}
	for i := range o.buf {
		o.buf[i] = poison
	}
	for i := 0; i < n; i++ {
		o.buf[o.off+i] = fill(i)
	}
	return o
}

func (o operand) clone() operand {
	return operand{buf: append([]float64(nil), o.buf...), off: o.off, n: o.n}
}

// ptr is what a wrapper hands to a kernel. An empty operand at the very end
// of its buffer still has an element to point at (the padding).
func (o operand) ptr() *float64 { return &o.buf[o.off] }

func (o operand) vals() []float64 { return o.buf[o.off : o.off+o.n] }

// intact reports whether the elements outside the operand still hold poison.
func (o operand) intact(poison float64) bool {
	for i, v := range o.buf {
		if (i < o.off || i >= o.off+o.n) && !sameBits(v, poison) {
			return false
		}
	}
	return true
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// agree is the numeric contract between a kernel and its twin: the same
// NaN-ness, the same infinities, the same sign of zero, and finite values
// within 4 ulp * sqrt(terms) of each other at the magnitude of the terms
// summed (FMA and the four-lane summation order move low-order bits only).
func agree(got, want, scale float64, terms int) bool {
	switch {
	case math.IsNaN(want) || math.IsNaN(got):
		return math.IsNaN(want) && math.IsNaN(got)
	case math.IsInf(want, 0) || math.IsInf(got, 0):
		return got == want
	case want == 0 && got == 0 && scale == 0:
		return math.Signbit(got) == math.Signbit(want)
	}
	// Each product that underflows in the Go loop may also lose half of the
	// smallest denormal, which the fused kernel keeps.
	ulp := math.Nextafter(scale, math.Inf(1)) - scale
	terms = max(terms, 1)
	return math.Abs(got-want) <= 4*ulp*math.Sqrt(float64(terms))+float64(terms)*0x1p-1074
}

var special = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, -2.5e-310, 1, -1}

// filler returns a value generator: normals, one in four replaced by a
// value from salt when there is any.
func filler(rng *rand.Rand, salt []float64) func(int) float64 {
	return func(int) float64 {
		if len(salt) > 0 && rng.Intn(4) == 0 {
			return salt[rng.Intn(len(salt))]
		}
		return rng.NormFloat64()
	}
}

// prod is x*y as a term of a sum; a product of non-zeros that underflows
// stays non-zero, because the fused kernel keeps its sign where the Go
// loop's rounded product has become a zero.
func prod(x, y float64) float64 {
	if p := x * y; p != 0 || x == 0 || y == 0 {
		return p
	}
	return 5e-324
}

// magnitude is the sum of |terms| that a result is compared at.
func magnitude(terms ...float64) float64 {
	var s float64
	for _, t := range terms {
		if !math.IsNaN(t) && !math.IsInf(t, 0) {
			s += math.Abs(t)
		}
	}
	return s
}

func needAsm(t testing.TB) {
	if !useAsm {
		t.Skip("no AVX2+FMA: the portable loops are the only implementation here")
	}
}

// checkVec compares a destination written by a kernel with the twin's.
func checkVec(t *testing.T, what string, got, want operand, scale func(i int) float64, terms int) {
	t.Helper()
	if !got.intact(marker) {
		t.Fatalf("%s: wrote outside [off, off+n)", what)
	}
	for i, w := range want.vals() {
		if g := got.vals()[i]; !agree(g, w, scale(i), terms) {
			t.Fatalf("%s: [%d] = %v (%#x), portable %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// oneD runs every one-dimensional kernel on n elements at the given source
// and destination offsets.
func oneD(t *testing.T, rng *rand.Rand, n, so, do int, salt []float64) {
	fill := filler(rng, salt)
	what := func(k string) string {
		return fmt.Sprintf("%s n=%d src+%d dst+%d salted=%v", k, n, so, do, salt != nil)
	}
	nan := math.NaN()
	a := newOperand(so, n, nan, fill)
	b := newOperand((so+3)&7, n, nan, fill)
	s := fill(0)

	prodMag := make([]float64, n)
	for i := range prodMag {
		prodMag[i] = prod(a.vals()[i], b.vals()[i])
	}
	if got, want := dotAsm(a.ptr(), b.ptr(), n), dotProductGo(a.buf, b.buf, a.off, b.off, n); !agree(got, want, magnitude(prodMag...), n) {
		t.Fatalf("%s: %v, portable %v", what("dot"), got, want)
	}
	if got, want := sumAsm(a.ptr(), n), sumGo(a.buf, a.off, n); !agree(got, want, magnitude(a.vals()...), n) {
		t.Fatalf("%s: %v, portable %v", what("sum"), got, want)
	}
	sq := make([]float64, n)
	for i, v := range a.vals() {
		sq[i] = prod(v, v)
	}
	if got, want := dotAsm(a.ptr(), a.ptr(), n), sumSqGo(a.buf, a.off, n); !agree(got, want, magnitude(sq...), n) {
		t.Fatalf("%s: %v, portable %v", what("sumsq"), got, want)
	}

	// Maps: one IEEE operation per element, so bit-for-bit (NaN for NaN).
	exact := func(int) float64 { return 0 }
	type binary struct {
		name string
		asm  func(a, b, c *float64, n int)
		twin func(a, b, c []float64, ai, bi, ci, n int)
	}
	for _, k := range []binary{
		{"multWrite", multWriteAsm, multWriteGo},
		{"addWrite", addWriteAsm, addWriteGo},
		{"minusWrite", minusWriteAsm, minusWriteGo},
	} {
		got, want := newOperand(do, n, marker, fill), newOperand(do, n, marker, fill)
		k.asm(a.ptr(), b.ptr(), got.ptr(), n)
		k.twin(a.buf, b.buf, want.buf, a.off, b.off, want.off, n)
		checkVec(t, what(k.name), got, want, exact, 1)
		// In place, as the Row tile executor does when a register is reused.
		gi, wi := a.clone(), a.clone()
		k.asm(gi.ptr(), b.ptr(), gi.ptr(), n)
		k.twin(wi.buf, b.buf, wi.buf, wi.off, b.off, wi.off, n)
		for i, w := range wi.buf {
			if g := gi.buf[i]; !sameBits(g, w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s in place: buf[%d] = %v, portable %v", what(k.name), i, g, w)
			}
		}
	}
	type scalar struct {
		name string
		asm  func(a *float64, s float64, c *float64, n int)
		twin func(a []float64, s float64, c []float64, ai, ci, n int)
	}
	for _, k := range []scalar{
		{"multScalar", multScalarAsm, multScalarWriteGo},
		{"addScalar", addScalarAsm, addScalarWriteGo},
		{"scalarMinus", scalarMinusAsm, func(a []float64, s float64, c []float64, ai, ci, n int) {
			scalarMinusWriteGo(s, a, c, ai, ci, n)
		}},
	} {
		got, want := newOperand(do, n, marker, fill), newOperand(do, n, marker, fill)
		k.asm(a.ptr(), s, got.ptr(), n)
		k.twin(a.buf, s, want.buf, a.off, want.off, n)
		checkVec(t, what(k.name), got, want, exact, 1)
	}

	// Rank-k updates: c += sum of b_r * a_r over r rows of one buffer.
	rows := newOperand(so, 8*n, nan, fill)
	bs := [8]float64{s, fill(1), fill(2), fill(3), fill(4), fill(5), fill(6), fill(7)}
	ro := func(r int) int { return rows.off + r*n }
	rp := func(r int) *float64 { return &rows.buf[ro(r)] }
	c0 := newOperand(do, n, marker, fill)
	mag := func(r int) func(int) float64 {
		return func(i int) float64 {
			terms := []float64{c0.vals()[i]}
			for q := 0; q < r; q++ {
				terms = append(terms, prod(bs[q], rows.buf[ro(q)+i]))
			}
			return magnitude(terms...)
		}
	}
	got, want := c0.clone(), c0.clone()
	multAddAsm(rp(0), bs[0], got.ptr(), n)
	multAddGo(rows.buf, bs[0], want.buf, ro(0), want.off, n)
	checkVec(t, what("multAdd"), got, want, mag(1), 2)
	got, want = c0.clone(), c0.clone()
	multAdd4Asm(rp(0), rp(1), rp(2), rp(3), bs[0], bs[1], bs[2], bs[3], got.ptr(), n)
	multAdd4Go(rows.buf, bs[0], bs[1], bs[2], bs[3], want.buf, ro(0), ro(1), ro(2), ro(3), want.off, n)
	checkVec(t, what("multAdd4"), got, want, mag(4), 5)
	got, want = c0.clone(), c0.clone()
	multAdd8Asm(rp(0), rp(1), rp(2), rp(3), rp(4), rp(5), rp(6), rp(7),
		bs[0], bs[1], bs[2], bs[3], bs[4], bs[5], bs[6], bs[7], got.ptr(), n)
	multAdd8Go(rows.buf, bs[0], bs[1], bs[2], bs[3], bs[4], bs[5], bs[6], bs[7], want.buf,
		ro(0), ro(1), ro(2), ro(3), ro(4), ro(5), ro(6), ro(7), want.off, n)
	checkVec(t, what("multAdd8"), got, want, mag(8), 9)
	if !rows.intact(nan) || !a.intact(nan) || !b.intact(nan) {
		t.Fatalf("%s: a kernel wrote to a source", what("sources"))
	}
}

// TestKernelsDifferential covers n in 0..130 (the 16-, 8- and 4-element
// passes, tails of 1-3, the inline cutoff either side) at every source and
// destination offset 0..7, so every misalignment of a 32-byte load.
func TestKernelsDifferential(t *testing.T) {
	needAsm(t)
	rng := rand.New(rand.NewSource(15))
	for n := 0; n <= 130; n++ {
		for so := 0; so < 8; so++ {
			for do := 0; do < 8; do++ {
				oneD(t, rng, n, so, do, nil)
			}
		}
		oneD(t, rng, n, n&7, (n>>3)&7, special)
	}
}

// product runs the narrow kernel in both orientations against the Go tile
// loops, with the strides MatMultAdd and TMatMultAdd pass.
func product(t *testing.T, rng *rand.Rand, rows, k, n, slack, off int, salt []float64) {
	fill := filler(rng, salt)
	nan := math.NaN()
	what := func(o string) string {
		return fmt.Sprintf("%s rows=%d k=%d n=%d slack=%d off=%d salted=%v", o, rows, k, n, slack, off, salt != nil)
	}
	scale := func(a, b operand, aix func(i, kk int) int, bstride int, c operand) func(int) float64 {
		return func(p int) float64 {
			i, j := p/n, p%n
			terms := []float64{c.vals()[p]}
			for kk := 0; kk < k; kk++ {
				terms = append(terms, prod(a.buf[aix(i, kk)], b.buf[b.off+kk*bstride+j]))
			}
			return magnitude(terms...)
		}
	}
	// C (rows x n) += A (rows x k, stride k+slack) %*% B (k x n).
	astride := k + slack
	a := newOperand(off, (rows-1)*astride+k, nan, fill)
	b := newOperand((off+5)&7, k*n, nan, fill)
	c0 := newOperand((off+2)&7, rows*n, marker, fill)
	got, want := c0.clone(), c0.clone()
	narrow(a.buf, b.buf, got.buf, a.off, astride, 1, b.off, n, got.off, rows, k, n)
	matMultAddGo(a.buf, b.buf, want.buf, a.off, astride, b.off, want.off, rows, k, n)
	checkVec(t, what("A%*%B"), got, want, scale(a, b, func(i, kk int) int { return a.off + i*astride + kk }, n, c0), k+1)

	// C (rows x n) += t(A) (A is k x rows, stride rows+slack) %*% B (k x n,
	// stride n+slack, or 0: one row repeated). TMatMultAdd keeps n == 1 on
	// the rank-4 update, zero skip and all.
	if n == 1 {
		return
	}
	astride = rows + slack
	a = newOperand(off, (k-1)*astride+rows, nan, fill)
	for _, bstride := range []int{n + slack, 0} {
		b = newOperand((off+5)&7, (k-1)*bstride+n, nan, fill)
		got, want = c0.clone(), c0.clone()
		narrow(a.buf, b.buf, got.buf, a.off, 1, astride, b.off, bstride, got.off, rows, k, n)
		tMatMultAddGo(a.buf, b.buf, want.buf, a.off, astride, b.off, bstride, want.off, k, rows, n)
		// The kernel sums from +0 and adds the sum to C, like narrowRows4;
		// the Go t(A) loop adds each product to C, so a C of -0 under
		// products of -0 stays -0 there. A zero's sign is not compared here.
		sc := scale(a, b, func(i, kk int) int { return a.off + kk*astride + i }, bstride, c0)
		checkVec(t, what(fmt.Sprintf("t(A)%%*%%B bstride=%d", bstride)), got, want,
			func(p int) float64 { return sc(p) + 5e-324 }, k+1)
		if !a.intact(nan) || !b.intact(nan) {
			t.Fatalf("%s: the kernel wrote to a source", what("t(A)%*%B"))
		}
	}
}

func TestNarrowProductDifferential(t *testing.T) {
	needAsm(t)
	rng := rand.New(rand.NewSource(16))
	for rows := 1; rows <= 11; rows++ { // full groups of four and every remainder
		for k := 1; k <= 12; k++ { // even and odd common dimensions
			for n := 1; n < narrowCols; n++ {
				product(t, rng, rows, k, n, (rows+k)%3, (rows*k+n)&7, nil)
			}
		}
	}
	for i := 0; i < 300; i++ {
		salt := special
		if i%3 != 0 {
			salt = nil
		}
		product(t, rng, 1+rng.Intn(40), 1+rng.Intn(130), 1+rng.Intn(narrowCols-1), rng.Intn(4), rng.Intn(8), salt)
	}
}

// TestWrappersCheckBounds: the kernels check nothing, so a call whose last
// element lies outside a slice must panic in the wrapper, like the Go loop
// it replaces, and must leave the destination alone.
func TestWrappersCheckBounds(t *testing.T) {
	short, long := make([]float64, 15), make([]float64, 64)
	calls := map[string]func(){
		"DotProduct":       func() { DotProduct(long, short, 0, 0, 16) },
		"Sum":              func() { Sum(short, 4, 12) },
		"SumSq":            func() { SumSq(short, 0, 16) },
		"MultAdd":          func() { MultAdd(long, 2, short, 0, 0, 16) },
		"MultAdd4":         func() { MultAdd4(long, 1, 1, 1, 1, long, 0, 16, 32, 49, 0, 16) },
		"MultAdd8":         func() { MultAdd8(long, 1, 1, 1, 1, 1, 1, 1, 1, short, 0, 8, 16, 24, 32, 40, 48, 49, 0, 16) },
		"Add":              func() { Add(long, short, 0, 0, 16) },
		"MultWrite":        func() { MultWrite(long, long, short, 0, 0, 0, 16) },
		"AddWrite":         func() { AddWrite(long, short, long, 0, 0, 0, 16) },
		"MinusWrite":       func() { MinusWrite(short, long, long, 0, 0, 0, 16) },
		"MultScalarWrite":  func() { MultScalarWrite(long, 2, short, 0, 0, 16) },
		"AddScalarWrite":   func() { AddScalarWrite(short, 2, long, 0, 0, 16) },
		"MinusScalarWrite": func() { MinusScalarWrite(long, 2, short, 0, 0, 16) },
		"ScalarMinusWrite": func() { ScalarMinusWrite(2, long, short, 0, 0, 16) },
		"DivScalarWrite":   func() { DivScalarWrite(long, 2, short, 0, 0, 16) },
		"negative offset":  func() { DotProduct(long, long, -1, 0, 16) },
		"MatMultAdd A":     func() { MatMultAdd(long, long, long, 0, 10, 0, 0, 7, 10, 2) },
		"MatMultAdd C":     func() { MatMultAdd(long, long, short, 0, 8, 0, 0, 8, 8, 2) },
		"TMatMultAdd B":    func() { TMatMultAdd(long, short, long, 0, 4, 0, 2, 0, 8, 4, 2) },
	}
	for name, call := range calls {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: out-of-range call did not panic", name)
				}
			}()
			call()
		}()
	}
	for i, v := range short {
		if v != 0 {
			t.Fatalf("a refused call wrote short[%d] = %v", i, v)
		}
	}
}

// TestExportedMatchPortable drives the exported functions, dispatch and
// offsets included, across the cutoff.
func TestExportedMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 0; n <= 2*asmMin+3; n++ {
		a, b := newOperand(3, n, math.NaN(), filler(rng, nil)), newOperand(5, n, math.NaN(), filler(rng, nil))
		terms := make([]float64, n)
		for i := range terms {
			terms[i] = prod(a.vals()[i], b.vals()[i])
		}
		if got, want := DotProduct(a.buf, b.buf, a.off, b.off, n), dotProductGo(a.buf, b.buf, a.off, b.off, n); !agree(got, want, magnitude(terms...), n) {
			t.Fatalf("DotProduct n=%d: %v, portable %v", n, got, want)
		}
		got := newOperand(1, n, marker, filler(rng, nil))
		MinusScalarWrite(a.buf, 0.75, got.buf, a.off, got.off, n)
		sum := b.clone()
		Add(a.buf, sum.buf, a.off, sum.off, n)
		if !got.intact(marker) || !sum.intact(math.NaN()) {
			t.Fatalf("n=%d: wrote outside [off, off+n)", n)
		}
		for i, v := range a.vals() {
			if g := got.vals()[i]; g != v-0.75 {
				t.Fatalf("MinusScalarWrite n=%d: [%d] = %v, want %v", n, i, g, v-0.75)
			}
			if g := sum.vals()[i]; g != b.vals()[i]+v {
				t.Fatalf("Add n=%d: [%d] = %v, want %v", n, i, g, b.vals()[i]+v)
			}
		}
	}
}

// FuzzKernels decodes a shape, offsets and values from the input and runs
// the one-dimensional kernels and the narrow product against their twins.
// Values come from raw bit patterns, so NaNs, infinities, denormals and
// signed zeros arrive without being listed.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{17, 3, 5, 2, 9, 4, 1})
	f.Add([]byte{130, 7, 0, 7, 3, 129, 0xff, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(binary.LittleEndian.AppendUint64([]byte{33, 1, 6, 5, 11, 2, 0}, math.Float64bits(math.Inf(-1))))
	f.Fuzz(func(t *testing.T, in []byte) {
		needAsm(t)
		if len(in) < 7 {
			return
		}
		n, so, do := int(in[0])%131, int(in[1])&7, int(in[2])&7
		rows, k, w := 1+int(in[3])%12, 1+int(in[4])%40, 1+int(in[5])%(narrowCols-1)
		var salt []float64
		if in[6]&1 == 1 {
			salt = append(salt, special...)
		}
		vals := in[7:]
		seed := int64(len(in))
		for _, c := range in {
			seed = seed*131 + int64(c)
		}
		rng := rand.New(rand.NewSource(seed))
		for ; len(vals) >= 8 && len(salt) < 24; vals = vals[8:] {
			// Bit patterns from the input join the salt; huge magnitudes are
			// folded down so that sums overflow in neither implementation.
			v := math.Float64frombits(binary.LittleEndian.Uint64(vals))
			if !math.IsInf(v, 0) && math.Abs(v) > 1e100 {
				v = math.Copysign(1e100, v)
			}
			salt = append(salt, v)
		}
		oneD(t, rng, n, so, do, salt)
		product(t, rng, rows, k, w, int(in[1])%3, do, salt)
	})
}
