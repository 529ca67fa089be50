package codegen

import (
	"math"

	"sysml/internal/cplan"
	"sysml/internal/hop"
)

// Cost-audit support: after plan selection, the optimizer annotates every
// executable HOP with the cost model's predicted time, FLOPs, and IO
// volume (hop.PredSec/PredFlops/PredBytes). The runtime records these next
// to measured wall time and data-touch work in the obs.Audit ledger, which
// is how we find out where the §4.3 analytical model diverges from
// reality — the prerequisite for feeding measured calibration constants
// back into CostParams.

// predictHop fills h's prediction fields from the model inputs: fl raw
// FLOPs, inBytes distinct input bytes, and scale the sparsity-exploitation
// factor. Mirrors Coster.addOpCost (Tw + max(Tr·scale, Tc), with side
// inputs of distributed operators charged at broadcast bandwidth).
func predictHop(cfg *Config, h *hop.Hop, fl, inBytes, scale float64) {
	m := cfg.Costs
	outBytes := float64(h.OutputSizeBytes())
	tw := outBytes / m.WriteBW
	tr := inBytes / m.ReadBW
	if h.ExecType == hop.ExecDist {
		var largest float64
		for _, in := range h.Inputs {
			if s := float64(in.ReadSizeBytes()); s > largest {
				largest = s
			}
		}
		side := inBytes - largest
		if side > 0 {
			tr = largest/m.ReadBW + side/m.BroadcastBW
		}
	}
	tc := fl * scale / m.ComputeBW
	h.PredSec = tw + math.Max(tr*scale, tc)
	h.PredFlops = fl * scale
	h.PredBytes = int64(inBytes) + int64(outBytes)
}

// predictSpoof annotates a freshly spliced fused operator with the cost
// vector of its covered region: summed covered-HOP FLOPs, distinct input
// bytes, the template's sparsity scale and, for a Row operator that must
// densify a sparse main input, the densification the coster charges.
func (c *constructor) predictSpoof(spoof *hop.Hop, t cplan.TemplateType, regions []*region) {
	var fl float64
	for _, r := range regions {
		for id := range r.covered {
			if x := c.memo.Hop(id); x != nil {
				fl += flops(x)
			}
		}
	}
	var inBytes float64
	var main *hop.Hop
	for _, in := range spoof.Inputs {
		inBytes += float64(in.ReadSizeBytes())
		main = mainInput(main, in)
	}
	op, _ := spoof.Spoof.(*cplan.Operator)
	denseMain := op != nil && op.Plan.Type == cplan.TemplateRow && !op.Progs[0].MainSparseCapable()
	predictHop(c.cfg, spoof, fl, inBytes, sparsityScale(t, main, denseMain))
	spoof.PredSec += rowDensifySec(c.cfg.Costs, t, main, denseMain)
}

// AnnotatePredictions walks an optimized DAG and attaches cost predictions
// to every executable operator that construction did not already annotate
// (fused operators get their covered-region estimate at splice time; this
// pass covers the remaining basic operators). Data reads, literals, and
// data generators carry no prediction — the model does not cost them.
func AnnotatePredictions(d *hop.DAG, cfg *Config) {
	seen := map[int64]bool{}
	var walk func(h *hop.Hop)
	walk = func(h *hop.Hop) {
		if seen[h.ID] {
			return
		}
		seen[h.ID] = true
		for _, in := range h.Inputs {
			walk(in)
		}
		switch h.Kind {
		case hop.OpData, hop.OpLiteral, hop.OpDataGen:
			return
		}
		if h.PredSec > 0 {
			return
		}
		predictHop(cfg, h, flops(h), float64(h.ReadInputSizeBytes()), 1)
	}
	for _, r := range d.Roots() {
		walk(r)
	}
}
