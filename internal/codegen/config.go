// Package codegen implements the paper's cost-based optimization framework
// for operator fusion plans: candidate exploration over a memoization table
// (§3), cost-based candidate selection with the MPSkipEnum algorithm (§4),
// and CPlan construction plus code generation with a plan cache (§2).
package codegen

import "sysml/internal/hop"

// Mode selects the fusion plan selection policy.
type Mode int

// Selection policies: no codegen (Base), hand-coded fused operators only
// (Fused, implemented as a fixed small pattern set), cost-based optimizer
// (Gen), and the two heuristics fuse-all (GenFA) and fuse-no-redundancy
// (GenFNR) from §4.1.
const (
	ModeBase Mode = iota
	ModeFused
	ModeGen
	ModeGenFA
	ModeGenFNR
)

var modeNames = [...]string{"Base", "Fused", "Gen", "Gen-FA", "Gen-FNR"}

// String returns the mode name as printed in EXPLAIN output and benchmark
// tables.
func (m Mode) String() string { return modeNames[m] }

// CompilerKind selects the operator compile path (Fig. 11).
type CompilerKind int

// Compile paths: Janino analog (direct closure assembly) and Javac analog
// (render + parse-validate the full source first).
const (
	CompilerJanino CompilerKind = iota
	CompilerJavac
)

// CompressMode selects the compressed-linear-algebra policy for bound
// inputs (the dmlrun -compress flag).
type CompressMode int

// Compression policies: Auto compresses the inputs whose sampled
// compression-ratio estimate clears the interpreter's threshold, Off
// disables the compressed path entirely.
const (
	CompressAuto CompressMode = iota
	CompressOff
)

var compressNames = [...]string{"auto", "off"}

// String returns the flag spelling of the mode (auto, off).
func (c CompressMode) String() string { return compressNames[c] }

// Config controls the codegen optimizer.
type Config struct {
	Mode     Mode
	Compiler CompilerKind

	// PlanCache enables reuse of compiled operators across DAGs keyed by
	// CPlan hash. PlanCacheSize bounds the number of cached operators; when
	// full, the oldest entry is evicted. At 0 a script session bounds its
	// own cache at four operators per block plan it keeps and a serving
	// engine its shared one at its default size.
	PlanCache     bool
	PlanCacheSize int

	// ReuseBlockPlans lets the script interpreter reuse a block's optimized
	// DAG across loop iterations while structure, sizes, and sparsity stay
	// unchanged (SystemML only recompiles dirty blocks); disable to force
	// dynamic recompilation on every execution, as the compilation-overhead
	// experiments do.
	ReuseBlockPlans bool

	// EnablePartition optimizes connected components of fusion plans
	// independently; EnableCostPrune and EnableStructPrune toggle the two
	// MPSkipEnum pruning techniques (Fig. 12 configurations).
	EnablePartition   bool
	EnableCostPrune   bool
	EnableStructPrune bool

	// DisableMAgg turns off multi-aggregate combining (ablation): the
	// sibling pass drops its groups of full aggregates only.
	DisableMAgg bool

	// DisableHFuse turns off horizontal sibling fusion (ablation): the
	// sibling pass groups full aggregates only, into MAgg operators, and the
	// other siblings sharing a dominant input execute as separate scans.
	DisableHFuse bool

	// MaxPointsExact caps the exhaustive search: partitions with more
	// interesting points than this open with fuse-all and materialize, in
	// one pass, each point that lowers the plan cost (Enumerator.Best).
	MaxPointsExact int

	Exec hop.ExecConfig

	// Costs holds the analytical cost model constants.
	Costs CostModel

	// Compress selects the compressed-linear-algebra policy for bound
	// inputs.
	Compress CompressMode

	// Reopt controls mid-script re-optimization: when an input's observed
	// sparsity diverges from its estimate beyond the configured threshold,
	// the interpreter invalidates the block's cached plan and re-optimizes
	// with the corrected estimate; a block whose wall time diverges from its
	// prediction is counted (reopt.time) and keeps its plan.
	Reopt ReoptConfig
}

// ReoptConfig switches mid-script re-optimization (see docs/COST_MODEL.md
// for its fixed divergence factors and how they interact with the plan
// cache).
type ReoptConfig struct {
	// Enabled turns the divergence checks on; when false the interpreter
	// never revisits a cached block plan.
	Enabled bool

	// MinSec is the wall-time floor of the time-divergence counter:
	// sub-millisecond blocks are dominated by dispatch, not plan quality.
	MinSec float64
}

// DefaultReoptConfig enables re-optimization: a 4x sparsity mismatch or an
// 8x time mismatch on a >=1ms block.
func DefaultReoptConfig() ReoptConfig {
	return ReoptConfig{Enabled: true, MinSec: 1e-3}
}

// DefaultConfig returns the production defaults (cost-based optimizer, plan
// cache, both prunings on).
func DefaultConfig() Config {
	return Config{
		Mode:              ModeGen,
		Compiler:          CompilerJanino,
		PlanCache:         true,
		ReuseBlockPlans:   true,
		EnablePartition:   true,
		EnableCostPrune:   true,
		EnableStructPrune: true,
		MaxPointsExact:    12,
		Exec:              hop.DefaultExecConfig(),
		Costs:             DefaultCostModel(),
		Compress:          CompressAuto,
		Reopt:             DefaultReoptConfig(),
	}
}

// CostModel holds bandwidth and compute constants of the analytical cost
// model (§4.3). Only ratios matter for plan choices.
type CostModel struct {
	ReadBW      float64 // bytes/s peak read
	WriteBW     float64 // bytes/s peak write
	ComputeBW   float64 // FLOP/s peak
	BroadcastBW float64 // bytes/s for distributed side-input broadcast
}

// DefaultCostModel mirrors the paper's per-node constants (32 GB/s read,
// 115 GFLOP/s) with a write bandwidth of half the read bandwidth and a
// broadcast bandwidth an order of magnitude below local reads.
func DefaultCostModel() CostModel {
	return CostModel{
		ReadBW:      32e9,
		WriteBW:     16e9,
		ComputeBW:   115.2e9,
		BroadcastBW: 1.25e9, // ~10 Gb Ethernet
	}
}

// Template bounds no experiment varies.
const (
	// rowTemplateMaxCols bounds the width of the second matmult input for
	// Row-template B1 binding.
	rowTemplateMaxCols = 128
	// outerMaxRank bounds the inner dimension of outer-product templates.
	outerMaxRank = 256
)
