//go:build !amd64

package vector

// Only amd64 has assembly kernels: with useAsm constant false the compiler
// drops every call below, the declarations just let the wrappers compile.
const useAsm = false

// Portable runs f: off amd64 the portable loops are all there is.
func Portable(f func()) { f() }

func dotAsm(a, b *float64, n int) float64                 { panic("vector: no assembly kernels") }
func sumAsm(a *float64, n int) float64                    { panic("vector: no assembly kernels") }
func multAddAsm(a *float64, b float64, c *float64, n int) { panic("vector: no assembly kernels") }
func multAdd4Asm(a0, a1, a2, a3 *float64, b0, b1, b2, b3 float64, c *float64, n int) {
	panic("vector: no assembly kernels")
}
func multAdd8Asm(a0, a1, a2, a3, a4, a5, a6, a7 *float64, b0, b1, b2, b3, b4, b5, b6, b7 float64, c *float64, n int) {
	panic("vector: no assembly kernels")
}
func narrowAsm(a *float64, arow, ak int, b *float64, bstride int, c *float64, cstride, rows, k int, mask *[4]int64) {
	panic("vector: no assembly kernels")
}
func narrow8Asm(a *float64, arow, ak int, b *float64, bstride int, c *float64, cstride, rows, k int, hi *[4]int64) {
	panic("vector: no assembly kernels")
}
func dotRowsAsm(chunks int, a *float64, astride int, v, d *float64, rows int, mask, tail *[4]int64) {
	panic("vector: no assembly kernels")
}
func dotIdxAsm(chunks int, a *float64, astride int, v, d *float64, rows int, mask, tail *[4]int64, ix *int, last int) int {
	panic("vector: no assembly kernels")
}
func tDotAsm(chunks int, a *float64, astride int, b *float64, bstride int, c *float64, rows int, mask *[4]int64) {
	panic("vector: no assembly kernels")
}

func spMatAsm(m int, vals *float64, ix *int, nnz int, b *float64, last int, c *float64) int {
	panic("vector: no assembly kernels")
}
func spOuterAsm(m int, vals *float64, ix *int, nnz int, b *float64, last int, c *float64) int {
	panic("vector: no assembly kernels")
}

func minAsm(a *float64, n int) float64 { panic("vector: no assembly kernels") }
func maxAsm(a *float64, n int) float64 { panic("vector: no assembly kernels") }

func tileVV(op int, a *float64, astride int, b *float64, bstride int, c *float64, rows, w int, mask *[4]int64) {
	panic("vector: no assembly kernels")
}
func tileVS(op int, a *float64, astride int, s *float64, sstride int, c *float64, rows, w int, mask *[4]int64) {
	panic("vector: no assembly kernels")
}
func rowReduceAsm(op int, a *float64, astride int, d *float64, rows int, lo, hi, tail *[4]int64) {
	panic("vector: no assembly kernels")
}

var expAsm, sigmoidAsm, logAsm laneKernel
