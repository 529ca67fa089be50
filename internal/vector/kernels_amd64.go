package vector

// useAsm is the one dispatch rule: the CPU and the OS support AVX2 and FMA,
// so calls of at least asmMin elements go to the kernels in kernels_amd64.s;
// everything else runs the portable Go loops.
var useAsm = cpuHasAVX2FMA()

func cpuHasAVX2FMA() bool

// Portable runs f with the dispatch rule off: every primitive takes its
// portable Go loop, as off amd64. It is for tests that compare a whole
// program under both; kernels that other goroutines run meanwhile switch
// too.
func Portable(f func()) {
	defer func(old bool) { useAsm = old }(useAsm)
	useAsm = false
	f()
}

//go:noescape
func dotAsm(a, b *float64, n int) float64

//go:noescape
func sumAsm(a *float64, n int) float64

//go:noescape
func multAddAsm(a *float64, b float64, c *float64, n int)

//go:noescape
func multAdd4Asm(a0, a1, a2, a3 *float64, b0, b1, b2, b3 float64, c *float64, n int)

//go:noescape
func multAdd8Asm(a0, a1, a2, a3, a4, a5, a6, a7 *float64, b0, b1, b2, b3, b4, b5, b6, b7 float64, c *float64, n int)

//go:noescape
func narrowAsm(a *float64, arow, ak int, b *float64, bstride int, c *float64, cstride, rows, k int, mask *[4]int64)

//go:noescape
func narrow8Asm(a *float64, arow, ak int, b *float64, bstride int, c *float64, cstride, rows, k int, hi *[4]int64)

// The short-row kernels take rows of at most shortRow cells as chunks of
// four lanes (the last one under mask) and jump to the kernel of that many
// chunks.

//go:noescape
func dotRowsAsm(chunks int, a *float64, astride int, v, d *float64, rows int, mask, tail *[4]int64)

//go:noescape
func tDotAsm(chunks int, a *float64, astride int, b *float64, bstride int, c *float64, rows int, mask *[4]int64)

// The CSR-row kernels take a row's values and column indexes and a dense
// operand of 1 < m < narrowCols columns, and jump to the kernel of that m.
// They return nnz, or the position of the first index whose row of the
// indexed operand would start past last (index × m > last, unsigned).

//go:noescape
func spMatAsm(m int, vals *float64, ix *int, nnz int, b *float64, last int, c *float64) (done int)

//go:noescape
func spOuterAsm(m int, vals *float64, ix *int, nnz int, b *float64, last int, c *float64) (done int)

// The tile kernels compute c (rows×w, row-major) = a (rows astride apart) op
// b, b a tile like a (rows bstride apart, 0 repeats one row) or one value per
// row (sstride apart, 0 repeats one value); mask covers the last w%4 cells of
// a row. Each family has one entry point that jumps to the kernel of op —
// a direct call of a noescape function, so the operands, and Scalar's
// scalar, stay off the heap. op must be in vvOps, vsOps, or numOps + an
// operation of svOps (s op a).

//go:noescape
func tileVV(op int, a *float64, astride int, b *float64, bstride int, c *float64, rows, w int, mask *[4]int64)

//go:noescape
func tileVS(op int, a *float64, astride int, s *float64, sstride int, c *float64, rows, w int, mask *[4]int64)

//go:noescape
func rowReduceAsm(op int, a *float64, astride int, d *float64, rows int, lo, hi, tail *[4]int64)

//go:noescape
func minAsm(a *float64, n int) float64

//go:noescape
func maxAsm(a *float64, n int) float64

//go:noescape
func expAsm(a, c *float64, n int, tail *[4]int64) (group, bad int)

//go:noescape
func sigmoidAsm(a, c *float64, n int, tail *[4]int64) (group, bad int)

//go:noescape
func logAsm(a, c *float64, n int, tail *[4]int64) (group, bad int)
