package cplan

import (
	"math"

	"sysml/internal/matrix"
	"sysml/internal/vector"
)

// Specialized AOT chunk programs: tight Go loops composed from the
// internal/vector kernels, selected by structural fingerprint at plan-cache
// admission. They are the repo's stand-in for SystemML's JIT-compiled
// genexec bodies (Flare-style native loops): when a compiled cell root
// matches the fingerprint normal form, the runtime skeletons dispatch
// straight to these functions instead of walking the interpreted
// CellVecProgram instruction list (and far instead of the per-cell closure
// tree). Unmatched shapes carry a nil chunk and keep the interpreted path —
// dispatch is always transparent to results.
//
// The contract with the runtime skeletons (see runtime/cellwise.go):
//   - a chunk program may be used only when the main input is dense and
//     every side listed in Sides is dense and exactly main-shaped (the same
//     precondition as CellVecProgram.ChunkCompatible);
//   - Map writes dst[do:do+n] from main[lo:lo+n] — directly into the output
//     buffer, eliding the vector-program result-chunk copy;
//   - Agg returns an addition-combinable partial over main[lo:lo+n]
//     (sum-style aggregations only; the aggregation function is baked into
//     the chunk class);
//   - Col accumulates one main row (cols cells at base) into part.

// ChunkKind says which function slot of a ChunkProgram is populated.
type ChunkKind int

// Chunk program kinds, one per output context of a cell root.
const (
	ChunkMap ChunkKind = iota
	ChunkAgg
	ChunkColAgg
)

// ChunkProgram is one specialized cell-root body.
type ChunkProgram struct {
	Class string // fingerprint class, e.g. "cell.axpy", "agg.sumsq"
	Kind  ChunkKind

	Map func(ctx *Ctx, main, dst []float64, lo, do, n int)
	Agg func(ctx *Ctx, main []float64, lo, n int) float64
	Col func(ctx *Ctx, main []float64, base int, part []float64, cols int)

	// Sides lists flat side inputs the program reads; they must be dense
	// and main-shaped at dispatch time.
	Sides []int
}

// BuildChunk returns the specialized chunk program for a cell root in the
// given output context, or nil when the root matches no library shape.
func BuildChunk(root *CNode, cell CellType, agg matrix.AggOp) *ChunkProgram {
	f, ok := normalizeCell(root)
	if !ok || f.isConst {
		return nil
	}
	fp, ok := rootFingerprint(root, cell, agg)
	if !ok {
		return nil
	}
	class := fp[:len(fp)-len("("+f.params()+")")]
	switch cell {
	case CellNoAgg:
		p := &ChunkProgram{Class: class, Kind: ChunkMap, Map: buildMap(f)}
		if f.had >= 0 {
			p.Sides = []int{f.had}
		}
		return p
	case CellFullAgg, CellRowAgg:
		fn := buildAgg(f, agg)
		if fn == nil {
			return nil
		}
		p := &ChunkProgram{Class: class, Kind: ChunkAgg, Agg: fn}
		if f.had >= 0 {
			p.Sides = []int{f.had}
		}
		return p
	case CellColAgg:
		a, b, ok := f.affine()
		if !ok || agg != matrix.AggSum {
			return nil
		}
		return &ChunkProgram{Class: class, Kind: ChunkColAgg, Col: buildColSums(a, b)}
	}
	return nil
}

// buildMap assembles the element map for out = A2·g(A1·x+B1)[·S]+B2,
// specializing the identity-coefficient cases down to single vector-kernel
// calls and keeping the general cases as constant-captured loops.
func buildMap(f cform) func(ctx *Ctx, main, dst []float64, lo, do, n int) {
	a1, b1, a2, b2, gp := f.a1, f.b1, f.a2, f.b2, f.gp
	if f.had >= 0 {
		side := f.had
		if a1 == 1 && b1 == 0 && a2 == 1 && b2 == 0 {
			return func(ctx *Ctx, main, dst []float64, lo, do, n int) {
				vector.MultWrite(main, ctx.Sides[side].DenseData(), dst, lo, lo, do, n)
			}
		}
		return func(ctx *Ctx, main, dst []float64, lo, do, n int) {
			s := ctx.Sides[side].DenseData()
			for i := 0; i < n; i++ {
				dst[do+i] = a2*(a1*main[lo+i]+b1)*s[lo+i] + b2
			}
		}
	}
	switch f.g {
	case gNone:
		a, b, _ := f.affine()
		switch {
		case a == 1 && b == 0:
			return func(_ *Ctx, main, dst []float64, lo, do, n int) {
				vector.CopyWrite(main, dst, lo, do, n)
			}
		case b == 0:
			return func(_ *Ctx, main, dst []float64, lo, do, n int) {
				vector.MultScalarWrite(main, a, dst, lo, do, n)
			}
		default:
			return func(_ *Ctx, main, dst []float64, lo, do, n int) {
				for i := 0; i < n; i++ {
					dst[do+i] = a*main[lo+i] + b
				}
			}
		}
	case gExp:
		if a1 == 1 && b1 == 0 && a2 == 1 && b2 == 0 {
			return func(_ *Ctx, main, dst []float64, lo, do, n int) {
				vector.ExpWrite(main, dst, lo, do, n)
			}
		}
		return func(_ *Ctx, main, dst []float64, lo, do, n int) {
			for i := 0; i < n; i++ {
				dst[do+i] = a2*math.Exp(a1*main[lo+i]+b1) + b2
			}
		}
	case gLog:
		if a1 == 1 && b1 == 0 && a2 == 1 && b2 == 0 {
			return func(_ *Ctx, main, dst []float64, lo, do, n int) {
				vector.LogWrite(main, dst, lo, do, n)
			}
		}
		return func(_ *Ctx, main, dst []float64, lo, do, n int) {
			for i := 0; i < n; i++ {
				dst[do+i] = a2*math.Log(a1*main[lo+i]+b1) + b2
			}
		}
	case gSqrt:
		return func(_ *Ctx, main, dst []float64, lo, do, n int) {
			for i := 0; i < n; i++ {
				dst[do+i] = a2*math.Sqrt(a1*main[lo+i]+b1) + b2
			}
		}
	case gAbs:
		return func(_ *Ctx, main, dst []float64, lo, do, n int) {
			for i := 0; i < n; i++ {
				dst[do+i] = a2*math.Abs(a1*main[lo+i]+b1) + b2
			}
		}
	case gSigmoid:
		if a1 == 1 && b1 == 0 && a2 == 1 && b2 == 0 {
			return func(_ *Ctx, main, dst []float64, lo, do, n int) {
				vector.SigmoidWrite(main, dst, lo, do, n)
			}
		}
		return func(_ *Ctx, main, dst []float64, lo, do, n int) {
			for i := 0; i < n; i++ {
				dst[do+i] = a2/(1+math.Exp(-(a1*main[lo+i]+b1))) + b2
			}
		}
	case gPow2:
		if a1 == 1 && b1 == 0 && a2 == 1 && b2 == 0 {
			return func(_ *Ctx, main, dst []float64, lo, do, n int) {
				vector.Pow2Write(main, dst, lo, do, n)
			}
		}
		return func(_ *Ctx, main, dst []float64, lo, do, n int) {
			for i := 0; i < n; i++ {
				t := a1*main[lo+i] + b1
				dst[do+i] = a2*t*t + b2
			}
		}
	case gRelu:
		return func(_ *Ctx, main, dst []float64, lo, do, n int) {
			for i := 0; i < n; i++ {
				dst[do+i] = a2*math.Max(a1*main[lo+i]+b1, gp) + b2
			}
		}
	}
	return nil
}

// buildAgg assembles the closed-form partial aggregate of the normal form:
// the sum over n cells reduces to the vector kernels Sum/SumSq/DotProduct
// plus coefficient algebra (Σ(a·x+b) = a·Σx + b·n and friends).
func buildAgg(f cform, agg matrix.AggOp) func(ctx *Ctx, main []float64, lo, n int) float64 {
	a1, b1, a2, b2 := f.a1, f.b1, f.a2, f.b2
	switch agg {
	case matrix.AggSum:
		switch {
		case f.had >= 0 && f.g == gNone:
			side := f.had
			if a1 == 1 && b1 == 0 && a2 == 1 && b2 == 0 {
				return func(ctx *Ctx, main []float64, lo, n int) float64 {
					return vector.DotProduct(main, ctx.Sides[side].DenseData(), lo, lo, n)
				}
			}
			// Σ [a2(a1·x+b1)·s + b2] = a2·a1·(x·s) + a2·b1·Σs + b2·n
			return func(ctx *Ctx, main []float64, lo, n int) float64 {
				s := ctx.Sides[side].DenseData()
				return a2*a1*vector.DotProduct(main, s, lo, lo, n) +
					a2*b1*vector.Sum(s, lo, n) + b2*float64(n)
			}
		case f.g == gNone:
			a, b, _ := f.affine()
			if a == 1 && b == 0 {
				return func(_ *Ctx, main []float64, lo, n int) float64 {
					return vector.Sum(main, lo, n)
				}
			}
			return func(_ *Ctx, main []float64, lo, n int) float64 {
				return a*vector.Sum(main, lo, n) + b*float64(n)
			}
		case f.g == gPow2:
			// Σ [a2(a1·x+b1)² + b2] expands over Σx² and Σx.
			if a1 == 1 && b1 == 0 && a2 == 1 && b2 == 0 {
				return func(_ *Ctx, main []float64, lo, n int) float64 {
					return vector.SumSq(main, lo, n)
				}
			}
			return func(_ *Ctx, main []float64, lo, n int) float64 {
				return a2*(a1*a1*vector.SumSq(main, lo, n)+
					2*a1*b1*vector.Sum(main, lo, n)+b1*b1*float64(n)) + b2*float64(n)
			}
		}
	case matrix.AggSumSq:
		a, b, ok := f.affine()
		if !ok {
			return nil
		}
		if a == 1 && b == 0 {
			return func(_ *Ctx, main []float64, lo, n int) float64 {
				return vector.SumSq(main, lo, n)
			}
		}
		return func(_ *Ctx, main []float64, lo, n int) float64 {
			return a*a*vector.SumSq(main, lo, n) +
				2*a*b*vector.Sum(main, lo, n) + b*b*float64(n)
		}
	}
	return nil
}

// buildColSums assembles the per-row column accumulation part[j] += a·x+b.
func buildColSums(a, b float64) func(ctx *Ctx, main []float64, base int, part []float64, cols int) {
	if a == 1 && b == 0 {
		return func(_ *Ctx, main []float64, base int, part []float64, cols int) {
			vector.Add(main, part, base, 0, cols)
		}
	}
	return func(_ *Ctx, main []float64, base int, part []float64, cols int) {
		for j := 0; j < cols; j++ {
			part[j] += a*main[base+j] + b
		}
	}
}

// ChunkClasses lists the fingerprint classes of every chunk program
// attached to the operator, in root order; empty when the operator has no
// specialization (pure interpreted dispatch).
func (op *Operator) ChunkClasses() []string {
	var out []string
	if op.Chunk != nil {
		out = append(out, op.Chunk.Class)
	}
	for _, c := range op.MAggChunks {
		if c != nil {
			out = append(out, c.Class)
		}
	}
	if op.HFused != nil {
		out = append(out, op.HFused.Class)
	}
	return out
}
