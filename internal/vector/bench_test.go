package vector

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkNarrowProducts times the narrow products at the shapes the
// benchmark's algorithms run — X %*% V and t(X) %*% V over dense rows of 10
// and 29 cells with 1, 2 and 5 columns, and Mnist-like CSR rows (784
// columns, ~160 stored cells clustered in the middle) against dense
// operands of 1, 2 and 5 columns (at one column both take the Go loop) —
// each on a 32 KiB tile (cache-resident)
// and on a 12 MB stream (memory), through the exported functions. ns/row
// (dense) and ns/nnz (CSR) sit next to Sum over the same bytes, the read
// roofline:
//
//	GOMAXPROCS=1 go test ./internal/vector -run '^$' -bench NarrowProducts
func BenchmarkNarrowProducts(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	fill := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		return x
	}
	per := func(b *testing.B, units int, unit string) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(units), unit)
	}
	for _, size := range []struct {
		name  string
		bytes int
	}{{"tile", 32 << 10}, {"stream", 12 << 20}} {
		for _, k := range []int{10, 29} {
			rows := size.bytes / (8 * k)
			x, y, d := fill(rows*k), fill(rows*5), make([]float64, rows*5)
			v, c := fill(k*5), make([]float64, k*5)
			pre := fmt.Sprintf("%s/k=%d/", size.name, k)
			b.Run(pre+"Sum", func(b *testing.B) {
				for range b.N {
					twinSink += Sum(x, 0, rows*k)
				}
				per(b, rows, "ns/row")
			})
			for _, n := range []int{1, 2, 5} {
				b.Run(fmt.Sprintf("%sX%%*%%V/n=%d", pre, n), func(b *testing.B) {
					for range b.N {
						if n == 1 {
							DotRows(x, v, d, 0, k, 0, rows, k)
							continue
						}
						clear(d[:rows*n])
						MatMultAdd(x, v, d, 0, k, 0, 0, rows, k, n)
					}
					per(b, rows, "ns/row")
				})
				b.Run(fmt.Sprintf("%st(X)%%*%%V/n=%d", pre, n), func(b *testing.B) {
					for range b.N {
						clear(c)
						TMatMultAdd(x, y, c, 0, k, 0, n, 0, rows, k, n)
					}
					per(b, rows, "ns/row")
				})
			}
		}
		vals, ix, ptr := mnistRows(rng, size.bytes/16)
		nnz := len(vals)
		flat := fill(2 * nnz) // the bytes of the values and the indexes
		pre := size.name + "/csr/"
		b.Run(pre+"Sum", func(b *testing.B) {
			for range b.N {
				twinSink += Sum(flat, 0, len(flat))
			}
			per(b, nnz, "ns/nnz")
		})
		for _, m := range []int{1, 2, 5} {
			dense, out := fill(784*m), make([]float64, (len(ptr)-1)*m)
			b.Run(fmt.Sprintf("%sX%%*%%B/m=%d", pre, m), func(b *testing.B) {
				for range b.N {
					for i := 0; i+1 < len(ptr); i++ {
						lo, hi := ptr[i], ptr[i+1]
						MatMultSparse(vals[lo:hi], ix[lo:hi], dense, out, 0, i*m, m)
					}
				}
				per(b, nnz, "ns/nnz")
			})
			b.Run(fmt.Sprintf("%st(X)%%*%%D/m=%d", pre, m), func(b *testing.B) {
				for range b.N {
					clear(dense)
					for i := 0; i+1 < len(ptr); i++ {
						lo, hi := ptr[i], ptr[i+1]
						OuterMultAddSparse(vals[lo:hi], ix[lo:hi], out, dense, i*m, 0, m)
					}
				}
				per(b, nnz, "ns/nnz")
			})
		}
	}
}

// mnistRows returns CSR rows of 784 columns (28×28 images) with about nnz
// stored cells in all: each cell of the middle 18×18 square is stored with
// probability 1/2, none outside it.
func mnistRows(rng *rand.Rand, nnz int) (vals []float64, ix, ptr []int) {
	ptr = []int{0}
	for len(vals) < nnz {
		for r := 5; r < 23; r++ {
			for c := 5; c < 23; c++ {
				if rng.Intn(2) == 0 {
					vals, ix = append(vals, rng.Float64()), append(ix, 28*r+c)
				}
			}
		}
		ptr = append(ptr, len(vals))
	}
	return vals, ix, ptr
}
