package vector

// useAsm is the one dispatch rule: the CPU and the OS support AVX2 and FMA,
// so calls of at least asmMin elements go to the kernels in kernels_amd64.s;
// everything else runs the portable Go loops.
var useAsm = cpuHasAVX2FMA()

func cpuHasAVX2FMA() bool

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
func multWriteAsm(a, b, c *float64, n int)

//go:noescape
func addWriteAsm(a, b, c *float64, n int)

//go:noescape
func minusWriteAsm(a, b, c *float64, n int)

//go:noescape
func multScalarAsm(a *float64, s float64, c *float64, n int)

//go:noescape
func addScalarAsm(a *float64, s float64, c *float64, n int)

//go:noescape
func scalarMinusAsm(a *float64, s float64, c *float64, n int)
