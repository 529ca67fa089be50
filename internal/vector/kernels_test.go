package vector

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
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

// vvKernel and vsKernel call the tile kernel of an operation directly and
// report whether it has one.
func vvKernel(op Op, a *float64, astride int, b *float64, bstride int, c *float64, rows, w int, mask *[4]int64) bool {
	if vvOps>>op&1 == 0 {
		return false
	}
	tileVV(int(op), a, astride, b, bstride, c, rows, w, mask)
	return true
}

func vsKernel(op Op, left bool, a *float64, astride int, s *float64, sstride int, c *float64, rows, w int, mask *[4]int64) bool {
	k, ok := scalarKernel(op, left)
	if ok {
		tileVS(k, a, astride, s, sstride, c, rows, w, mask)
	}
	return ok
}

// checkMap compares the destination of an element-wise kernel with the
// twin's, bit for bit; a NaN of an arithmetic operation matches any NaN.
func checkMap(t *testing.T, what string, op Op, got, want operand) {
	t.Helper()
	if !got.intact(marker) {
		t.Fatalf("%s: wrote outside its destination", what)
	}
	strictNaN := op == OpMin || op == OpMax
	for i, w := range want.vals() {
		g := got.vals()[i]
		if !sameBits(g, w) && (strictNaN || !math.IsNaN(g) || !math.IsNaN(w)) {
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

	if n >= asmMin { // the kernels read the first and the last eight elements unconditionally
		if got, want := minAsm(a.ptr(), n), minGo(a.buf, a.off, n); !sameBits(got, want) {
			t.Fatalf("%s: %v (%#x), portable %v (%#x)", what("min"), got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got, want := maxAsm(a.ptr(), n), maxGo(a.buf, a.off, n); !sameBits(got, want) {
			t.Fatalf("%s: %v (%#x), portable %v (%#x)", what("max"), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}

	// Maps as tiles of one row: one IEEE operation per element, so bit for
	// bit; an arithmetic NaN is any NaN (the payload of NaN + NaN depends on
	// the operand order the compiler picked), a min/max NaN is math.NaN's.
	for op := Op(0); op < numOps && n > 0; op++ {
		got, want := newOperand(do, n, marker, fill), newOperand(do, n, marker, fill)
		if vvKernel(op, a.ptr(), n, b.ptr(), n, got.ptr(), 1, n, tailMask(n)) {
			binaryRowsGo(op, a.buf, a.off, n, b.buf, b.off, n, want.buf, want.off, 1, n)
			checkMap(t, what(fmt.Sprintf("vv %d", op)), op, got, want)
			// In place, as the Row tile executor does when a register is reused.
			gi, wi := a.clone(), a.clone()
			vvKernel(op, gi.ptr(), n, b.ptr(), n, gi.ptr(), 1, n, tailMask(n))
			binaryRowsGo(op, wi.buf, wi.off, n, b.buf, b.off, n, wi.buf, wi.off, 1, n)
			gi.off, wi.off, gi.n, wi.n = 0, 0, len(gi.buf), len(wi.buf) // the padding too
			checkMap(t, what(fmt.Sprintf("vv %d in place", op)), op, gi, wi)
		}
		for _, left := range []bool{false, true} {
			sv := newOperand(so, 1, nan, func(int) float64 { return s })
			got, want := newOperand(do, n, marker, fill), newOperand(do, n, marker, fill)
			if !vsKernel(op, left, a.ptr(), n, sv.ptr(), 0, got.ptr(), 1, n, tailMask(n)) {
				continue
			}
			scalarRowsGo(op, left, a.buf, a.off, n, sv.buf, sv.off, 0, want.buf, want.off, 1, n)
			checkMap(t, what(fmt.Sprintf("vs %d left=%v", op, left)), op, got, want)
		}
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

	if n == 1 {
		// One column over rows of at most shortRow cells is the short-row
		// kernel, through MatMultAdd (adding to C) and DotRows (over a
		// destination it clears, where the Go loops take a DotProduct per
		// row; the sign of a zero sum aside).
		got, want = c0.clone(), c0.clone()
		MatMultAdd(a.buf, b.buf, got.buf, a.off, astride, b.off, got.off, rows, k, n)
		matMultAddGo(a.buf, b.buf, want.buf, a.off, astride, b.off, want.off, rows, k, n)
		sc := scale(a, b, func(i, kk int) int { return a.off + i*astride + kk }, n, c0)
		checkVec(t, what("MatMultAdd"), got, want, func(p int) float64 { return sc(p) + 5e-324 }, k+1)
		got, want = c0.clone(), c0.clone()
		DotRows(a.buf, b.buf, got.vals(), a.off, astride, b.off, rows, k)
		for i := range want.vals() {
			want.vals()[i] = dotProductGo(a.buf, b.buf, a.off+i*astride, b.off, k)
		}
		sc = scale(a, b, func(i, kk int) int { return a.off + i*astride + kk }, n, operand{buf: make([]float64, rows), n: rows})
		checkVec(t, what("DotRows"), got, want, func(p int) float64 { return sc(p) + 5e-324 }, k)
	}

	// C (rows x n) += t(A) (A is k x rows, stride rows+slack) %*% B (k x n,
	// stride n+slack, or 0: one row repeated): the narrow kernel, or with
	// one column TMatMultAdd (the short-row kernel up to shortRow outputs,
	// the rank-4 update past them; no zero skip in either) against the Go
	// loops.
	astride = rows + slack
	a = newOperand(off, (k-1)*astride+rows, nan, fill)
	for _, bstride := range []int{n + slack, 0} {
		b = newOperand((off+5)&7, (k-1)*bstride+n, nan, fill)
		got, want = c0.clone(), c0.clone()
		if n == 1 {
			TMatMultAdd(a.buf, b.buf, got.buf, a.off, astride, b.off, bstride, got.off, k, rows, n)
		} else {
			narrow(a.buf, b.buf, got.buf, a.off, 1, astride, b.off, bstride, got.off, rows, k, n)
		}
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

// csr runs the CSR-row kernels on one row of nnz stored cells over n rows
// of a dense operand of m columns — the product with B (MatMultSparse) and
// the outer product into C
// (OuterMultAddSparse) — against their Go loops.
func csr(t *testing.T, rng *rand.Rand, nnz, m, off int, salt []float64) {
	fill := filler(rng, salt)
	nan := math.NaN()
	n := nnz + rng.Intn(8)
	ix := rng.Perm(n)[:nnz]
	sort.Ints(ix)
	what := func(o string) string {
		return fmt.Sprintf("%s nnz=%d m=%d n=%d off=%d salted=%v", o, nnz, m, n, off, salt != nil)
	}
	vals := newOperand(off, nnz, nan, fill)
	b := newOperand((off+3)&7, n*m, nan, fill)
	c0 := newOperand((off+5)&7, m, marker, fill)
	got, want := c0.clone(), c0.clone()
	MatMultSparse(vals.vals(), ix, b.buf, got.buf, b.off, got.off, m)
	matMultSparseGo(vals.vals(), ix, b.buf, want.buf, b.off, want.off, m)
	scale := func(j int) float64 {
		terms := []float64{}
		for k, i := range ix {
			terms = append(terms, prod(vals.vals()[k], b.vals()[i*m+j]))
		}
		return magnitude(terms...) + 5e-324
	}
	checkVec(t, what("X%*%B"), got, want, scale, nnz)
	bv := newOperand((off+1)&7, m, nan, fill)
	c0 = newOperand((off+6)&7, n*m, marker, fill)
	got, want = c0.clone(), c0.clone()
	OuterMultAddSparse(vals.vals(), ix, bv.buf, got.buf, bv.off, got.off, m)
	outerMultAddSparseGo(vals.vals(), ix, bv.buf, want.buf, bv.off, want.off, m)
	checkVec(t, what("t(X)%*%D"), got, want, func(p int) float64 {
		terms := []float64{c0.vals()[p]}
		if k := sort.SearchInts(ix, p/m); k < nnz && ix[k] == p/m {
			terms = append(terms, prod(vals.vals()[k], bv.vals()[p%m]))
		}
		return magnitude(terms...)
	}, 2)
	if !vals.intact(nan) || !b.intact(nan) || !bv.intact(nan) {
		t.Fatalf("%s: a kernel wrote to a source", what("csr"))
	}
}

func TestCSRKernelsDifferential(t *testing.T) {
	needAsm(t)
	rng := rand.New(rand.NewSource(32))
	for nnz := 0; nnz <= 40; nnz++ { // both sides of asmMin, every remainder of four
		for m := 1; m < narrowCols; m++ {
			csr(t, rng, nnz, m, (nnz+m)&7, nil)
			csr(t, rng, nnz, m, nnz&7, special)
		}
	}
}

// TestCSRKernelsHandOverABadIndex: the kernels check every column index
// against the rows of the dense operand and stop at the first one outside
// them; the Go loop then takes the row, so an index its arithmetic accepts
// (negative, over an offset B) gives its result, and one it does not
// panics there.
func TestCSRKernelsHandOverABadIndex(t *testing.T) {
	for m := 1; m < narrowCols; m++ {
		vals := make([]float64, 2*asmMin) // past the cutoff of every kernel
		ix := make([]int, 2*asmMin)
		for k := range ix {
			vals[k], ix[k] = float64(k+1), k
		}
		ix[5] = -1
		b := make([]float64, 24*m)
		for i := range b {
			b[i] = float64(i%7) - 3
		}
		got, want := make([]float64, m), make([]float64, m)
		MatMultSparse(vals, ix, b, got, 2*m, 0, m)
		matMultSparseGo(vals, ix, b, want, 2*m, 0, m)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MatMultSparse m=%d: [%d] = %v, Go loop %v", m, i, got[i], want[i])
			}
		}
		ix[5] = 40
		c := make([]float64, 24*m)
		for name, call := range map[string]func(){
			"MatMultSparse":      func() { MatMultSparse(vals, ix, b, got, 0, 0, m) },
			"OuterMultAddSparse": func() { OuterMultAddSparse(vals, ix, b, c, 0, 0, m) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s m=%d: an index past the operand did not panic", name, m)
					}
				}()
				call()
			}()
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

// tile runs every tile kernel — the maps with a tile or a scalar per row as
// second operand, the row reductions — on a rows×w tile whose source rows
// are w+slack apart, against the Go twins.
func tile(t *testing.T, rng *rand.Rand, rows, w, slack, off int, salt []float64) {
	fill := filler(rng, salt)
	nan := math.NaN()
	astride := w + slack
	a := newOperand(off, (rows-1)*astride+w, nan, fill)
	for _, bstride := range []int{w, w + slack, 0} {
		what := func(k string, op int) string {
			return fmt.Sprintf("%s %d rows=%d w=%d astride=%d bstride=%d off=%d salted=%v", k, op, rows, w, astride, bstride, off, salt != nil)
		}
		b := newOperand((off+5)&7, (rows-1)*bstride+w, nan, fill)
		for op := Op(0); op < numOps; op++ {
			got, want := newOperand((off+2)&7, rows*w, marker, fill), newOperand((off+2)&7, rows*w, marker, fill)
			if !vvKernel(op, a.ptr(), astride, b.ptr(), bstride, got.ptr(), rows, w, tailMask(w)) {
				continue
			}
			binaryRowsGo(op, a.buf, a.off, astride, b.buf, b.off, bstride, want.buf, want.off, rows, w)
			checkMap(t, what("vv", int(op)), op, got, want)
		}
		if !a.intact(nan) || !b.intact(nan) {
			t.Fatalf("%s: a kernel wrote to a source", what("vv", -1))
		}
	}
	for _, sstride := range []int{1, 0} {
		what := func(k string, op int, left bool) string {
			return fmt.Sprintf("%s %d left=%v rows=%d w=%d astride=%d sstride=%d off=%d salted=%v", k, op, left, rows, w, astride, sstride, off, salt != nil)
		}
		sc := newOperand((off+3)&7, (rows-1)*sstride+1, nan, fill)
		for op := Op(0); op < numOps; op++ {
			for _, left := range []bool{false, true} {
				got, want := newOperand((off+2)&7, rows*w, marker, fill), newOperand((off+2)&7, rows*w, marker, fill)
				if !vsKernel(op, left, a.ptr(), astride, sc.ptr(), sstride, got.ptr(), rows, w, tailMask(w)) {
					continue
				}
				scalarRowsGo(op, left, a.buf, a.off, astride, sc.buf, sc.off, sstride, want.buf, want.off, rows, w)
				checkMap(t, what("vs", int(op), left), op, got, want)
				if slack == 0 { // in place: a tile of its own rows
					gi, wi := a.clone(), a.clone()
					vsKernel(op, left, gi.ptr(), w, sc.ptr(), sstride, gi.ptr(), rows, w, tailMask(w))
					scalarRowsGo(op, left, wi.buf, wi.off, w, sc.buf, sc.off, sstride, wi.buf, wi.off, rows, w)
					gi.off, wi.off, gi.n, wi.n = 0, 0, len(gi.buf), len(wi.buf)
					checkMap(t, what("vs in place", int(op), left), op, gi, wi)
				}
			}
		}
		if !a.intact(nan) || !sc.intact(nan) {
			t.Fatalf("%s: a kernel wrote to a source", what("vs", -1, false))
		}
	}
	if w >= narrowCols {
		return
	}
	lo, hi := (*[4]int64)(laneMask[4-min(w, 4):]), (*[4]int64)(laneMask[4-max(w-4, 0):])
	for op := Reduce(0); op < numReduces; op++ {
		got, want := newOperand(off, rows, marker, fill), newOperand(off, rows, marker, fill)
		rowReduceAsm(int(op), a.ptr(), astride, got.ptr(), rows, lo, hi, tailMask(rows))
		rowReduceGo(op, a.buf, a.off, astride, want.buf[want.off:], rows, w)
		what := fmt.Sprintf("row reduce %d rows=%d w=%d astride=%d off=%d salted=%v", op, rows, w, astride, off, salt != nil)
		if op == ReduceMin || op == ReduceMax {
			checkMap(t, what, OpMin, got, want)
			continue
		}
		checkVec(t, what, got, want, func(i int) float64 {
			terms := append([]float64(nil), a.buf[a.off+i*astride:][:w]...)
			for j, v := range terms {
				if terms[j] = v; op == ReduceSumSq {
					terms[j] = prod(v, v)
				}
			}
			return magnitude(terms...)
		}, w)
	}
	if !a.intact(nan) {
		t.Fatal("a row reduction wrote to its source")
	}
}

// TestTileKernelsDifferential: rows 1..70 (the flat passes of a tile that
// is one run of cells, and row by row) × widths 1..9 (every tail mask, one
// width past the narrow ones) × source strides w and w+3 × every offset.
func TestTileKernelsDifferential(t *testing.T) {
	needAsm(t)
	rng := rand.New(rand.NewSource(20))
	for rows := 1; rows <= 70; rows++ {
		for w := 1; w <= 9; w++ {
			for _, slack := range []int{0, 3} {
				salt := special
				if (rows+w)%3 != 0 {
					salt = nil
				}
				tile(t, rng, rows, w, slack, (rows*w+slack)&7, salt)
			}
		}
	}
	for off := 0; off < 8; off++ {
		for w := 1; w <= 9; w++ {
			tile(t, rng, 5, w, off%2*3, off, special)
		}
	}
}

// ulps is the distance between two finite values of one sign in units of
// the last place.
func ulps(x, y float64) uint64 {
	a, b := math.Float64bits(x), math.Float64bits(y)
	if a < b {
		a, b = b, a
	}
	return a - b
}

var laneFuncs = []struct {
	name   string
	kernel func(a, c []float64, ai, ci, n int)
	ref    func(float64) float64
}{
	{"exp", ExpWrite, math.Exp},
	{"log", LogWrite, math.Log},
	{"sigmoid", SigmoidWrite, sigmoid},
}

// lanes runs exp, log and sigmoid on n elements: within 2 ulp of the
// scalar function, the same bits for everything outside the kernels'
// domains, nothing written outside the destination, and in place.
func lanes(t *testing.T, rng *rand.Rand, n, so, do int, salt []float64) {
	fill := filler(rng, salt)
	for _, f := range laneFuncs {
		a := newOperand(so, n, math.NaN(), func(i int) float64 {
			switch v := fill(i); rng.Intn(4) {
			case 0:
				return v * 300 // both tails of exp, the sign of log's argument
			case 1:
				return math.Abs(v)
			default:
				return v
			}
		})
		got := newOperand(do, n, marker, fill)
		f.kernel(a.buf, got.buf, a.off, got.off, n)
		in := a.clone()
		f.kernel(in.buf, in.buf, in.off, in.off, n)
		if !got.intact(marker) || !in.intact(math.NaN()) {
			t.Fatalf("%s n=%d src+%d dst+%d: wrote outside its destination", f.name, n, so, do)
		}
		for i, x := range a.vals() {
			g, w := got.vals()[i], f.ref(x)
			if !sameBits(g, in.vals()[i]) {
				t.Fatalf("%s(%v) = %v, in place %v", f.name, x, g, in.vals()[i])
			}
			if sameBits(g, w) {
				continue
			}
			if math.IsNaN(w) || math.IsInf(w, 0) || w == 0 || math.Abs(w) < 0x1p-1022 || math.Signbit(g) != math.Signbit(w) || ulps(g, w) > 2 {
				t.Fatalf("%s(%v) [%d of %d] = %v (%#x), scalar %v (%#x)", f.name, x, i, n, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

func TestLaneKernelsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for n := 0; n <= 40; n++ {
		for so := 0; so < 8; so++ {
			lanes(t, rng, n, so, (so*3+n)&7, nil)
		}
		lanes(t, rng, n, n&7, (n>>3)&7, append([]float64{709, -709, 708, -708, 710, -745, -746, 1e-300, -1e-300, 0x1p-1022, 0x1p-1023}, special...))
	}
}

// TestExpLogAccuracy is the accuracy and purity contract of the four-lane
// kernels: 10^6 arguments across the whole finite range within 2 ulp of
// math.Exp/math.Log (the histogram is logged), the special values bit for
// bit, and the same bits for an argument at every offset and length.
func TestExpLogAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const n = 1 << 20
	arg := map[string]func() float64{
		"exp":     func() float64 { return (rng.Float64()*2 - 1) * 745 },
		"sigmoid": func() float64 { return (rng.Float64()*2 - 1) * 745 },
		// Every exponent and mantissa of the positive finite doubles.
		"log": func() float64 { return math.Float64frombits(rng.Uint64() % 0x7FF0000000000000) },
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -1, -5e-324, 5e-324, 0x1p-1022,
		math.MaxFloat64, -math.MaxFloat64, 709.782712893384, 709.79, -708.4, -745.13, -745.14, 1, math.E, 0.5, 2}
	a, c := make([]float64, n), make([]float64, n)
	for _, f := range laneFuncs {
		for i := range a {
			a[i] = arg[f.name]()
		}
		copy(a, specials)
		f.kernel(a, c, 0, 0, n)
		var hist [3]int
		for i, x := range a {
			w := f.ref(x)
			switch {
			case sameBits(c[i], w):
				hist[0]++
			case i < len(specials):
				t.Fatalf("%s(%v) = %v (%#x), scalar %v (%#x): special values are bit for bit", f.name, x, c[i], math.Float64bits(c[i]), w, math.Float64bits(w))
			case math.IsNaN(w) || math.Signbit(w) != math.Signbit(c[i]) || ulps(c[i], w) > 2:
				t.Fatalf("%s(%v) = %v, scalar %v: more than 2 ulp", f.name, x, c[i], w)
			default:
				hist[ulps(c[i], w)]++
			}
		}
		t.Logf("%s: %d arguments, %d equal to the scalar function, %d at 1 ulp, %d at 2 ulp", f.name, n, hist[0], hist[1], hist[2])

		// Position independence: one argument per lane pattern, every offset
		// 0..7 and length 1..9 around it.
		for trial := 0; trial < 200; trial++ {
			x := a[rng.Intn(n)]
			buf, out := make([]float64, 32), make([]float64, 32)
			var want float64
			for off := 0; off < 8; off++ {
				for length := 1; length <= 9; length++ {
					for pos := 0; pos < length; pos++ {
						for i := range buf {
							buf[i] = a[rng.Intn(n)]
						}
						buf[off+pos] = x
						f.kernel(buf, out, off, off, length)
						if off+length+pos == 1 {
							want = out[off+pos]
						} else if !sameBits(out[off+pos], want) {
							t.Fatalf("%s(%v) = %#x at offset %d, element %d of %d; %#x alone", f.name, x, math.Float64bits(out[off+pos]), off, pos, length, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// TestPortableLoopsMatchOracle: the Go loops are what runs off amd64 and
// below the kernels' cutoffs, so the exported functions are checked against
// a per-element oracle (Op.Apply, Min2/Max2, math.Exp) with the kernels on
// and — Portable flips the package's dispatch variable — off.
func TestPortableLoopsMatchOracle(t *testing.T) {
	check := func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 400; trial++ {
			rows, w, slack := 1+rng.Intn(12), 1+rng.Intn(11), rng.Intn(3)
			fill := filler(rng, special)
			astride := w + slack
			a := newOperand(rng.Intn(8), (rows-1)*astride+w, math.NaN(), fill)
			bstride := []int{w, w + slack, 0}[rng.Intn(3)]
			b := newOperand(rng.Intn(8), (rows-1)*bstride+w, math.NaN(), fill)
			sstride := rng.Intn(2)
			sc := newOperand(rng.Intn(8), (rows-1)*sstride+1, math.NaN(), fill)
			same := func(what string, op Op, g, want float64) {
				t.Helper()
				if !sameBits(g, want) && (op == OpMin || op == OpMax || !math.IsNaN(g) || !math.IsNaN(want)) {
					t.Fatalf("%s op=%d rows=%d w=%d astride=%d: %v (%#x), oracle %v (%#x)", what, op, rows, w, astride, g, math.Float64bits(g), want, math.Float64bits(want))
				}
			}
			for op := Op(0); op < numOps; op++ {
				got := newOperand(rng.Intn(8), rows*w, marker, fill)
				BinaryRows(op, a.buf, a.off, astride, b.buf, b.off, bstride, got.buf, got.off, rows, w)
				for i, g := range got.vals() {
					same("BinaryRows", op, g, op.Apply(a.buf[a.off+i/w*astride+i%w], b.buf[b.off+i/w*bstride+i%w]))
				}
				for _, left := range []bool{false, true} {
					ScalarRows(op, left, a.buf, a.off, astride, sc.buf, sc.off, sstride, got.buf, got.off, rows, w)
					for i, g := range got.vals() {
						x, s := a.buf[a.off+i/w*astride+i%w], sc.buf[sc.off+i/w*sstride]
						want := op.Apply(x, s)
						switch {
						case left:
							want = op.Apply(s, x)
						case op == OpDiv:
							want = x * (1 / s)
						}
						same(fmt.Sprintf("ScalarRows left=%v", left), op, g, want)
					}
				}
				if !got.intact(marker) {
					t.Fatalf("op %d wrote outside its destination", op)
				}
			}
			d := newOperand(rng.Intn(8), rows, marker, fill)
			for op := Reduce(0); op < numReduces; op++ {
				RowReduce(op, a.buf, a.off, astride, d.buf[d.off:], rows, w)
				for r, g := range d.vals() {
					row := a.buf[a.off+r*astride:][:w]
					var want float64
					terms := append([]float64(nil), row...)
					switch op {
					case ReduceSum:
						for _, v := range row {
							want += v
						}
					case ReduceSumSq:
						for j, v := range row {
							want += v * v
							terms[j] = prod(v, v)
						}
					case ReduceMin:
						want = math.Inf(1)
						for _, v := range row {
							want = Min2(want, v)
						}
					case ReduceMax:
						want = math.Inf(-1)
						for _, v := range row {
							want = Max2(want, v)
						}
					}
					if op == ReduceMin || op == ReduceMax {
						same("RowReduce", OpMin, g, want)
					} else if !agree(g, want, magnitude(terms...), w) {
						t.Fatalf("RowReduce %d rows=%d w=%d: [%d] = %v, oracle %v", op, rows, w, r, g, want)
					}
				}
			}
			n := (rows-1)*astride + w
			same("Min", OpMin, Min(a.buf, a.off, n), minGo(a.buf, a.off, n))
			same("Max", OpMax, Max(a.buf, a.off, n), maxGo(a.buf, a.off, n))
		}
	}
	t.Run("dispatched", check)
	t.Run("portable", func(t *testing.T) { Portable(func() { check(t) }) })
}

// TestWrappersCheckBounds: the kernels check nothing, so a call whose last
// element lies outside a slice must panic in the wrapper, like the Go loop
// it replaces, and must leave the destination alone.
func TestWrappersCheckBounds(t *testing.T) {
	short, long := make([]float64, 15), make([]float64, 64)
	calls := map[string]func(){
		"DotProduct":      func() { DotProduct(long, short, 0, 0, 16) },
		"Sum":             func() { Sum(short, 4, 12) },
		"SumSq":           func() { SumSq(short, 0, 16) },
		"MultAdd":         func() { MultAdd(long, 2, short, 0, 0, 16) },
		"MultAdd4":        func() { MultAdd4(long, 1, 1, 1, 1, long, 0, 16, 32, 49, 0, 16) },
		"MultAdd8":        func() { MultAdd8(long, 1, 1, 1, 1, 1, 1, 1, 1, short, 0, 8, 16, 24, 32, 40, 48, 49, 0, 16) },
		"Add":             func() { Add(long, short, 0, 0, 16) },
		"Binary c":        func() { Binary(OpMul, long, long, short, 0, 0, 0, 16) },
		"Binary b":        func() { Binary(OpLe, long, short, long, 0, 0, 0, 16) },
		"Binary a":        func() { Binary(OpGt, short, long, long, 0, 0, 0, 16) },
		"BinaryRows a":    func() { BinaryRows(OpAdd, long, 0, 9, long, 0, 0, long, 0, 8, 2) },
		"BinaryRows b":    func() { BinaryRows(OpMin, long, 0, 2, short, 0, 2, long, 0, 8, 2) },
		"BinaryRows c":    func() { BinaryRows(OpSub, long, 0, 0, long, 0, 2, short, 0, 8, 2) },
		"Scalar c":        func() { Scalar(OpMul, false, long, 2, short, 0, 0, 16) },
		"Scalar a":        func() { Scalar(OpSub, true, short, 2, long, 0, 0, 16) },
		"ScalarRows a":    func() { ScalarRows(OpDiv, false, long, 0, 9, long, 0, 1, long, 0, 8, 2) },
		"ScalarRows s":    func() { ScalarRows(OpLt, true, long, 0, 2, short, 0, 1, long, 0, 16, 2) },
		"ScalarRows c":    func() { ScalarRows(OpAdd, false, long, 0, 0, long, 0, 1, short, 0, 8, 2) },
		"RowReduce a":     func() { RowReduce(ReduceSum, long, 0, 9, long, 8, 2) },
		"RowReduce d":     func() { RowReduce(ReduceMin, long, 0, 2, short, 16, 2) },
		"Min":             func() { Min(short, 4, 12) },
		"Max":             func() { Max(short, 0, 16) },
		"ExpWrite":        func() { ExpWrite(long, short, 0, 0, 16) },
		"LogWrite":        func() { LogWrite(short, long, 0, 0, 16) },
		"SigmoidWrite":    func() { SigmoidWrite(long, short, 0, 14, 2) },
		"negative offset": func() { DotProduct(long, long, -1, 0, 16) },
		"negative stride": func() { BinaryRows(OpAdd, long, 32, -2, long, 0, 2, long, 0, 8, 2) },
		"MatMultAdd A":    func() { MatMultAdd(long, long, long, 0, 10, 0, 0, 7, 10, 2) },
		"MatMultAdd C":    func() { MatMultAdd(long, long, short, 0, 8, 0, 0, 8, 8, 2) },
		"TMatMultAdd B":   func() { TMatMultAdd(long, short, long, 0, 4, 0, 2, 0, 8, 4, 2) },
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
		Scalar(OpSub, false, a.buf, 0.75, got.buf, a.off, got.off, n)
		sum := b.clone()
		Add(a.buf, sum.buf, a.off, sum.off, n)
		if !got.intact(marker) || !sum.intact(math.NaN()) {
			t.Fatalf("n=%d: wrote outside [off, off+n)", n)
		}
		for i, v := range a.vals() {
			if g := got.vals()[i]; g != v-0.75 {
				t.Fatalf("Scalar(OpSub) n=%d: [%d] = %v, want %v", n, i, g, v-0.75)
			}
			if g := sum.vals()[i]; g != b.vals()[i]+v {
				t.Fatalf("Add n=%d: [%d] = %v, want %v", n, i, g, b.vals()[i]+v)
			}
		}
	}
}

// FuzzKernels decodes a shape, offsets and values from the input and runs
// the one-dimensional kernels, the narrow product (with the short-row
// kernels at one column), the CSR-row kernels (rows of 0-40 stored cells),
// the tile kernels (maps, comparisons, row reductions) and exp/log/sigmoid
// against their twins.
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
		rows, k, w := 1+int(in[3])%36, 1+int(in[4])%40, 1+int(in[5])%(narrowCols-1)
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
		csr(t, rng, int(in[4])%41, w, so, salt)
		tile(t, rng, rows+k, 1+int(in[5])%9, int(in[1])%4, so, salt)
		lanes(t, rng, n, so, do, salt)
	})
}
