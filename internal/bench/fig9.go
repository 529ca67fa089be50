package bench

import (
	"fmt"
	"time"

	"sysml/internal/compress"
	"sysml/internal/cplan"
	"sysml/internal/data"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/runtime"
)

// Fig9CLA reproduces Fig. 9: sum(X^2) over uncompressed (ULA) and
// compressed (CLA) representations of Airline78-like (dense) and
// Mnist8m-like (sparse) data, for Base, Fused, and Gen.
//
// ULA Base materializes X^2 and sums it; ULA Fused/Gen run the fused
// sum-of-squares in one pass. On CLA, Base/Fused compute over the
// dictionary of distinct values (a shallow-copy special case, per §5.2),
// and Gen runs the generated operator under the product's dictionary
// binding: the body once over each column group's dictionary, weighed by
// the occurrence counts.
func Fig9CLA(o Options) *Table {
	t := &Table{
		Title:   "Fig 9 CLA: sum(X^2), ULA vs CLA (ms; ratio = compression)",
		Columns: []string{"dataset", "repr", "Base", "Fused", "Gen", "ratio"},
	}
	datasets := []struct {
		name string
		m    *matrix.Matrix
	}{
		{"Airline78-like", data.AirlineLike(o.rows(100000), 21)},
		{"Mnist8m-like", data.MnistLike(o.rows(20000), 22)},
	}
	// The generated cell operator for sum(X^2).
	plan := &cplan.Plan{
		Type: cplan.TemplateCell, Cell: cplan.CellFullAgg, AggOp: matrix.AggSum,
		Root:       cplan.Binary(matrix.BinMul, cplan.Main(0), cplan.Main(0)),
		SparseSafe: true,
	}
	genOp := cplan.Compile(plan, "TMP_SumSq")
	for _, ds := range datasets {
		x := ds.m
		// --- ULA ---
		base := Median(o.Reps, func() {
			sq := matrix.Binary(matrix.BinMul, x, x)
			_ = matrix.Sum(sq)
		})
		fused := Median(o.Reps, func() {
			_ = matrix.Agg(matrix.AggSumSq, matrix.DirAll, x)
		})
		gen := Median(o.Reps, func() {
			_ = runtimeExecCell(genOp, x)
		})
		t.Add(ds.name, "ULA", ms(base), ms(fused), ms(gen), "1.00")
		// --- CLA ---
		cm := compress.Compress(x, compress.DefaultOptions())
		claBase := Median(o.Reps, func() { _ = cm.SumSq() })
		claFused := claBase
		compress.Attach(x, cm)
		h := &hop.Hop{Kind: hop.OpSpoof, Spoof: genOp}
		claGen := Median(o.Reps, func() {
			if _, bind, err := runtime.ExecSpoof(matrix.Ctx{}, h, []*matrix.Matrix{x}, nil); err != nil || bind != runtime.BindDict {
				panic(fmt.Sprintf("fig9: CLA/Gen ran under %q (%v), want the dictionary binding", bind, err))
			}
		})
		compress.Drop(x)
		t.Add(ds.name, "CLA", ms(claBase), ms(time.Duration(claFused)), ms(claGen),
			fmt.Sprintf("%.2f", cm.CompressionRatio()))
	}
	return t
}
