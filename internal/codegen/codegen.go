package codegen

import (
	"fmt"
	"math"
	"math/big"
	"sort"
	"time"

	"sysml/internal/hop"
	"sysml/internal/obs"
)

// Optimize runs the codegen compiler over one HOP DAG: candidate
// exploration, candidate selection per the configured policy, CPlan
// construction, operator compilation (through the plan cache), and DAG
// modification. The DAG is modified in place and returned.
func Optimize(d *hop.DAG, cfg *Config, cache *PlanCache, stats *Stats) *hop.DAG {
	return OptimizeTraced(d, cfg, cache, stats, nil, obs.Span{})
}

// OptimizeTraced is Optimize with an optional EXPLAIN record, under a trace
// span: when rep is non-nil it is filled with the plan choices of this DAG
// (see PlanReport); when sp has a sink attached, the optimizer emits one
// child span per partition enumeration and one for operator construction,
// so plan-search time shows up in the trace timeline.
func OptimizeTraced(d *hop.DAG, cfg *Config, cache *PlanCache, stats *Stats, rep *PlanReport, sp obs.Span) *hop.DAG {
	start := time.Now()
	defer func() {
		dt := time.Since(start)
		stats.CodegenTime += dt
		if rep != nil {
			rep.CodegenTime = dt
		}
	}()
	if rep != nil && cache != nil {
		h0, m0, e0 := cache.Counters()
		defer func() {
			h1, m1, e1 := cache.Counters()
			rep.CacheHits, rep.CacheMisses, rep.CacheEvictions = h1-h0, m1-m0, e1-e0
		}()
	}
	// Every executable operator leaves with a cost prediction attached so
	// the runtime can audit the model, whichever mode produced the DAG.
	defer AnnotatePredictions(d, cfg)
	hop.AssignExecTypes(d.Roots(), cfg.Exec)
	if rep != nil {
		rep.Mode = cfg.Mode.String()
		rep.HopsBefore = hop.Explain(d.Roots())
		rep.Compressed = compressedInputs(d)
		defer func() { rep.HopsAfter = hop.Explain(d.Roots()) }()
	}

	switch cfg.Mode {
	case ModeBase:
		return d
	case ModeFused:
		applyFusedPatterns(d, cfg, cache, stats)
		return d
	}

	stats.DAGsOptimized++
	if searchHook != nil {
		searchHook(d, cfg)
	}
	esp := sp.Child("explore")
	memo := Explore(d.Roots(), cfg)
	esp.End()
	if len(memo.Groups) == 0 {
		return d
	}
	parts := BuildPartitions(memo, d.Roots())
	if !cfg.EnablePartition {
		parts = []*Partition{mergePartitions(parts)}
	}
	if cfg.Mode == ModeGenFA || cfg.Mode == ModeGenFNR {
		PruneDominated(memo)
	}
	q := map[Edge]bool{}
	for i, p := range parts {
		var psp obs.Span
		if sp.Active() {
			psp = sp.Child("enumerate",
				obs.KV("partition", i),
				obs.KV("nodes", len(p.Nodes)),
				obs.KV("points", len(p.Points)))
		}
		var evaluated int64
		var hypothetical *big.Int
		switch cfg.Mode {
		case ModeGen:
			en := NewEnumerator(cfg, memo, p)
			for e, v := range en.Best() {
				if v {
					q[e] = true
				}
			}
			stats.PlansEvaluated += en.Evaluated
			stats.HypotheticalPlans.Add(stats.HypotheticalPlans, en.Hypothetical)
			evaluated, hypothetical = en.Evaluated, en.Hypothetical
		case ModeGenFA:
			// Fuse-all: no materialization points (all assignments false).
			hypothetical = new(big.Int).Lsh(big.NewInt(1), uint(len(p.Points)))
		case ModeGenFNR:
			// Fuse-no-redundancy: materialize every multi-consumer target.
			for _, pt := range p.Points {
				if h := memo.Hop(pt.To); h != nil && h.NumConsumers() > 1 {
					q[pt] = true
				}
			}
			hypothetical = new(big.Int).Lsh(big.NewInt(1), uint(len(p.Points)))
		}
		if psp.Active() {
			psp.Annotate(obs.KV("evaluated", evaluated))
		}
		psp.End()
		if rep != nil {
			rep.Partitions = append(rep.Partitions,
				partitionReport(memo, p, q, cfg, evaluated, hypothetical))
		}
	}
	csp := sp.Child("construct")
	construct(d, memo, parts, q, cfg, cache, stats, rep)
	csp.End()
	return d
}

// searchHook, set by tests alone, sees every DAG a plan search is about to modify.
var searchHook func(d *hop.DAG, cfg *Config)

// compressedInputs collects the reads annotated with a compressed size
// before optimization, in name order, for the COMPRESSED EXPLAIN section.
// (The interpreter replaces the list with its own, which also holds the
// reads it considered and left uncompressed.)
func compressedInputs(d *hop.DAG) []CompressedInput {
	var out []CompressedInput
	seen := map[string]bool{}
	for _, h := range hop.TopoOrder(d.Roots()) {
		if h.Kind != hop.OpData || h.CompressedBytes <= 0 || seen[h.Name] {
			continue
		}
		seen[h.Name] = true
		out = append(out, CompressedInput{
			Name: h.Name, Rows: h.Rows, Cols: h.Cols,
			Verdict: CompressedVerdict(h.OutputSizeBytes(), h.CompressedBytes, h.CompressedDesc),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CompressedVerdict renders the verdict of a read that has a compressed
// form: its ratio, encoding mix (e.g. "DDC×12 RLE×3") and size.
func CompressedVerdict(bytes, compressedBytes int64, encodings string) string {
	return fmt.Sprintf("compressed %.2f× (%s, %d bytes)",
		float64(bytes)/float64(compressedBytes), encodings, compressedBytes)
}

// partitionReport summarizes the chosen plan of one partition, recosting
// the selected assignment so heuristic modes also report an estimate.
func partitionReport(memo *Memo, p *Partition, q map[Edge]bool, cfg *Config,
	evaluated int64, hypothetical *big.Int) PartitionReport {
	pr := PartitionReport{
		Nodes:          len(p.Nodes),
		PlansEvaluated: evaluated,
		Hypothetical:   hypothetical,
		EstCost:        NewCoster(cfg, memo, p).PlanCost(q, math.Inf(1)),
	}
	for _, pt := range p.Points {
		pr.Points = append(pr.Points, pointLabel(memo, pt))
		if q[pt] {
			pr.Materialized++
		}
	}
	sort.Strings(pr.Points)
	return pr
}

func mergePartitions(parts []*Partition) *Partition {
	merged := &Partition{Nodes: map[int64]bool{}}
	seenIn := map[int64]bool{}
	for _, p := range parts {
		for id := range p.Nodes {
			merged.Nodes[id] = true
		}
		merged.Roots = append(merged.Roots, p.Roots...)
		merged.MatPoints = append(merged.MatPoints, p.MatPoints...)
		merged.Points = append(merged.Points, p.Points...)
		for _, in := range p.Inputs {
			if !seenIn[in] {
				seenIn[in] = true
				merged.Inputs = append(merged.Inputs, in)
			}
		}
	}
	// Inputs that are nodes of another partition are now internal.
	kept := merged.Inputs[:0]
	for _, in := range merged.Inputs {
		if !merged.Nodes[in] {
			kept = append(kept, in)
		}
	}
	merged.Inputs = kept
	return merged
}
