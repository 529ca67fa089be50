package codegen_test

import (
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/rewrite"
)

// mlogregOuterDAG is MLogreg's outer block (linear, elin, P, grad) over an
// n x m input of nnz non-zeros (-1: dense) and k-1 = 2 classes.
func mlogregOuterDAG(n, m, nnz int64) *hop.DAG {
	d := hop.NewDAG()
	x := d.Read("X", n, m, nnz)
	b := d.Read("B", m, 2, -1)
	yind := d.Read("Yind", n, 2, -1)
	lambda := d.Lit(1e-3)
	linear := d.MatMult(x, b)
	rmax := d.Agg(matrix.AggMax, matrix.DirRow, linear)
	elin := d.Unary(matrix.UnExp, d.Binary(matrix.BinSub, linear, rmax))
	p := d.Binary(matrix.BinDiv, elin, d.Binary(matrix.BinAdd, d.RowSums(elin),
		d.Unary(matrix.UnExp, d.Binary(matrix.BinSub, d.Lit(0), rmax))))
	grad := d.Binary(matrix.BinAdd, d.MatMult(d.Transpose(x), d.Binary(matrix.BinSub, p, yind)),
		d.Binary(matrix.BinMul, lambda, b))
	d.Output("P", p)
	d.Output("grad", grad)
	return d
}

func BenchmarkEnumerate(b *testing.B) {
	cfg := codegen.DefaultConfig()
	cfg.EnableCostPrune = false
	d, _ := rewrite.Apply(mlogregOuterDAG(4000, 784, 784000))
	memo := codegen.Explore(d.Roots(), &cfg)
	parts := codegen.BuildPartitions(memo, d.Roots())
	var plans int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range parts {
			en := codegen.NewEnumerator(&cfg, memo, p)
			en.Best()
			plans += en.Evaluated
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(plans), "ns/plan")
	b.ReportMetric(float64(plans)/float64(b.N), "plans/op")
}

// BenchmarkEnumerateSmall is the search over the partitions of the small
// patterns (0-3 interesting points each), where what a plan costs matters
// less than what it costs to get ready for the first one.
func BenchmarkEnumerateSmall(b *testing.B) {
	cfg := codegen.DefaultConfig()
	type searched struct {
		memo  *codegen.Memo
		parts []*codegen.Partition
	}
	var all []searched
	for _, pat := range eqPatterns {
		d, _ := rewrite.Apply(pat.build())
		memo := codegen.Explore(d.Roots(), &cfg)
		all = append(all, searched{memo, codegen.BuildPartitions(memo, d.Roots())})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range all {
			for _, p := range s.parts {
				codegen.NewEnumerator(&cfg, s.memo, p).Best()
			}
		}
	}
}
