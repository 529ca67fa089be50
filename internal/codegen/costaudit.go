package codegen

import (
	"slices"

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

// predictHop fills h's prediction fields from the model inputs: fl FLOPs
// after sparsity exploitation and the bytes of h's inputs, priced by the
// function that prices plans (opSec).
func predictHop(cfg *Config, h *hop.Hop, fl float64) {
	inBytes, largest := readBytes(h.Inputs)
	h.PredSec = opSec(cfg.Costs, h, inBytes, largest, fl)
	h.PredFlops = fl
	h.PredBytes = int64(inBytes) + h.OutputSizeBytes()
}

// predictSpoof annotates a freshly spliced fused operator with the cost
// vector of its covered region: summed covered-HOP FLOPs (fusedFlops),
// distinct input bytes, the template's sparsity scale and, for a Row
// operator, the walk per consumer of the main input and the densification
// the coster charges.
func (c *constructor) predictSpoof(spoof *hop.Hop, t cplan.TemplateType, regions []*region) {
	var main *hop.Hop
	for _, in := range spoof.Inputs {
		main = mainInput(main, in)
	}
	var fl float64
	uses := 0
	for _, r := range regions {
		for id := range r.covered {
			if x := c.memo.Hop(id); x != nil {
				fl += fusedFlops(x)
				if rowSparseCapableUse(x) && slices.Contains(x.Inputs, main) {
					uses++
				}
			}
		}
	}
	op, _ := spoof.Spoof.(*cplan.Operator)
	denseMain := op != nil && (op.Plan.Type == cplan.TemplateRow && !op.Progs[0].MainSparseCapable() ||
		op.Plan.Type != cplan.TemplateRow && !op.Plan.SparseSafe)
	predictHop(c.cfg, spoof, fl*sparsityScale(t, main, denseMain))
	spoof.PredSec += rowMainSec(c.cfg.Costs, t, main, denseMain, uses)
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
		predictHop(cfg, h, flops(h))
	}
	for _, r := range d.Roots() {
		walk(r)
	}
}
