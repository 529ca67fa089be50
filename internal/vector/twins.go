package vector

// KernelTwin is one primitive on fixed operands of length n, once as the
// portable Go loop and once as the exported function that dispatches to the
// assembly kernel. fusebench -exp kernels times the two and gates on their
// ratio, so a dispatch that silently stays on the Go loop reads 1x.
type KernelTwin struct {
	Name       string
	Flops      int // per call
	Go, Export func()
}

var twinSink float64

// twinRows is the row count of the narrow product twin.
const twinRows = 64

// KernelTwins returns the twins of the dot product, the rank-4 update and
// the narrow product (twinRows×n %*% n×2).
func KernelTwins(n int) []KernelTwin {
	a := make([]float64, twinRows*n)
	for i := range a {
		a[i] = float64(i%17-8) / 8
	}
	b := make([]float64, 2*n)
	for i := range b {
		b[i] = float64(i%13-6) / 4
	}
	c := make([]float64, n)
	c2 := make([]float64, 2*twinRows)
	return []KernelTwin{
		{"dot", 2 * n,
			func() { twinSink += dotProductGo(a, b, 0, 0, n) },
			func() { twinSink += DotProduct(a, b, 0, 0, n) }},
		{"rank-4 update", 8 * n,
			func() { multAdd4Go(a, 1e-9, 2e-9, 3e-9, 4e-9, c, 0, n, 2*n, 3*n, 0, n) },
			func() { MultAdd4(a, 1e-9, 2e-9, 3e-9, 4e-9, c, 0, n, 2*n, 3*n, 0, n) }},
		{"narrow product 64xNx2", 4 * twinRows * n,
			func() { matMultAddGo(a, b, c2, 0, n, 0, 0, twinRows, n, 2) },
			func() { MatMultAdd(a, b, c2, 0, n, 0, 0, twinRows, n, 2) }},
	}
}
