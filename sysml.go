// Package sysml is a Go reproduction of "On Optimizing Operator Fusion
// Plans for Large-Scale Machine Learning in SystemML" (Boehm et al., VLDB
// 2018): a declarative machine-learning runtime with a cost-based operator
// fusion optimizer.
//
// The public API exposes three layers:
//
//   - Matrices: dense/sparse FP64 matrices with multi-threaded kernels
//     (NewDenseMatrix, RandMatrix, ...).
//   - Sessions: execute DML-subset scripts; every statement block flows
//     through rewrites and the fusion optimizer before execution
//     (NewSession, Session.Run).
//   - Configuration: choose the plan selection policy — Base (no fusion),
//     Fused (hand-coded operators), Gen (cost-based optimizer, default),
//     GenFA / GenFNR (the fuse-all and fuse-no-redundancy heuristics) —
//     and inspect optimizer statistics.
//
// Quick start:
//
//	s := sysml.NewSession()
//	s.Bind("X", sysml.RandMatrix(10000, 100, 1, -1, 1, 7))
//	err := s.Run(`w = t(X) %*% (X %*% t(colSums(X / 100)))`)
//
// Sessions are observable: Session.Explain returns the optimizer's plan
// report for a script, Session.Metrics snapshots runtime counters and
// phase timings, and WithSink streams explain reports and trace spans to
// any writer.
//
// Large operators can run on a simulated Spark-like cluster (NewCluster,
// WithCluster) with broadcast/shuffle byte accounting, and the cluster's
// fault-tolerant scheduler survives injected failures (WithFaultPlan):
// transient task errors are retried with backoff, a killed executor's
// unexecuted panels are reassigned via lineage, and stragglers are
// speculatively re-executed.
//
// See DESIGN.md for the system inventory, docs/ARCHITECTURE.md for the
// package map, and EXPERIMENTS.md for the paper-reproduction results.
package sysml

import (
	"io"
	"sync"
	"time"

	"sysml/internal/codegen"
	"sysml/internal/dist"
	"sysml/internal/dml"
	"sysml/internal/matrix"
	"sysml/internal/obs"
	"sysml/internal/serve"
)

// Matrix is a two-dimensional FP64 matrix in dense or sparse (CSR)
// representation.
type Matrix = matrix.Matrix

// NewDenseMatrix returns an all-zero dense rows×cols matrix.
func NewDenseMatrix(rows, cols int) *Matrix { return matrix.NewDense(rows, cols) }

// NewDenseMatrixData wraps an existing row-major backing slice.
func NewDenseMatrixData(rows, cols int, data []float64) *Matrix {
	return matrix.NewDenseData(rows, cols, data)
}

// RandMatrix generates a random matrix with the given non-zero fraction
// and value range, deterministically from the seed.
func RandMatrix(rows, cols int, sparsity, lo, hi float64, seed int64) *Matrix {
	return matrix.Rand(rows, cols, sparsity, lo, hi, seed)
}

// Scalar wraps a float64 as a 1×1 matrix (how scalars flow through the
// runtime).
func Scalar(v float64) *Matrix { return matrix.NewScalar(v) }

// Config controls the fusion optimizer; construct with DefaultConfig and
// adjust fields.
type Config = codegen.Config

// Mode selects the plan selection policy.
type Mode = codegen.Mode

// Plan selection policies (paper §4-5 baselines).
const (
	ModeBase   = codegen.ModeBase
	ModeFused  = codegen.ModeFused
	ModeGen    = codegen.ModeGen
	ModeGenFA  = codegen.ModeGenFA
	ModeGenFNR = codegen.ModeGenFNR
)

// DefaultConfig returns the production configuration: the cost-based
// optimizer with plan cache and both pruning techniques enabled.
func DefaultConfig() Config { return codegen.DefaultConfig() }

// Session executes DML-subset scripts against bound inputs.
type Session = dml.Session

// Option configures a Session at construction time.
type Option func(*sessionOpts)

type sessionOpts struct {
	cfg     Config
	sink    Sink
	cluster *Cluster
}

// WithConfig replaces the whole optimizer configuration (the default is
// DefaultConfig). Apply it before options that adjust single fields.
func WithConfig(cfg Config) Option {
	return func(o *sessionOpts) { o.cfg = cfg }
}

// WithMode selects the fusion plan selection policy.
func WithMode(m Mode) Option {
	return func(o *sessionOpts) { o.cfg.Mode = m }
}

// WithCluster attaches a simulated distributed backend; operators marked
// for distributed execution then run across its executors with
// broadcast/shuffle accounting.
func WithCluster(c *Cluster) Option {
	return func(o *sessionOpts) { o.cluster = c }
}

// WithSink streams observability events — per-block EXPLAIN reports and
// compile/optimize/execute trace spans — to the given sink.
func WithSink(sink Sink) Option {
	return func(o *sessionOpts) { o.sink = sink }
}

// WithPlanCacheSize bounds the compiled-operator plan cache to n entries
// (0 = unbounded); the oldest entry is evicted when full.
func WithPlanCacheSize(n int) Option {
	return func(o *sessionOpts) {
		o.cfg.PlanCache = true
		o.cfg.PlanCacheSize = n
	}
}

// NewSession creates a script session on the default engine. With no
// options it uses DefaultConfig; combine options to adjust it:
//
//	s := sysml.NewSession(
//		sysml.WithMode(sysml.ModeGen),
//		sysml.WithSink(sysml.NewWriterSink(os.Stderr)),
//	)
//
// Sessions needing dedicated resources — a private worker-pool cap, a
// memory budget, a shared plan cache — come from an explicit Engine via
// NewEngine and Engine.NewSession.
func NewSession(opts ...Option) *Session {
	return newSessionOn(DefaultEngine(), opts...)
}

func newSessionOn(e *Engine, opts ...Option) *Session {
	so := sessionOpts{cfg: DefaultConfig()}
	for _, opt := range opts {
		opt(&so)
	}
	s := e.NewSession(so.cfg)
	s.Sink = so.sink
	if so.cluster != nil {
		s.Dist = so.cluster
	}
	return s
}

// Engine owns the execution resources that back sessions and serving: a
// worker pool, a buffer pool with a live-bytes gauge, and a sharded
// compiled-plan cache with per-tenant accounting. Two engines in one
// process share no mutable state, so service tiers can run side by side
// with different caps and budgets. Construct with NewEngine; serve over
// HTTP with ServeEngine.
type Engine = serve.Engine

// EngineOption configures an Engine at construction time; see
// WithMaxWorkers, WithMemoryBudget, WithTenantQuota, WithSharedPlanCache,
// and WithEngineConfig.
type EngineOption = serve.EngineOption

// TenantQuota bounds one tenant's slice of an engine: concurrent
// sessions, cached plans, and live pooled bytes.
type TenantQuota = serve.TenantQuota

// NewEngine builds an execution engine:
//
//	e := sysml.NewEngine(
//		sysml.WithMaxWorkers(8),
//		sysml.WithMemoryBudget(1<<30),
//		sysml.WithTenantQuota(sysml.TenantQuota{MaxSessions: 4}),
//	)
//	s := e.NewSession(sysml.DefaultConfig())
//
// With no options the engine delegates to the process-wide default pools.
func NewEngine(opts ...EngineOption) *Engine { return serve.NewEngine(opts...) }

// WithMaxWorkers gives the engine a private worker pool capped at n
// goroutines (n <= 0 means GOMAXPROCS).
func WithMaxWorkers(n int) EngineOption { return serve.WithMaxWorkers(n) }

// WithMemoryBudget gives the engine a private buffer pool and sheds
// serving requests (HTTP 429) while live pooled bytes exceed the budget.
func WithMemoryBudget(bytes int64) EngineOption { return serve.WithMemoryBudget(bytes) }

// WithTenantQuota sets the default quota for tenants created on first use.
func WithTenantQuota(q TenantQuota) EngineOption { return serve.WithTenantQuota(q) }

// WithSharedPlanCache sizes the engine's sharded compiled-plan cache and
// makes Engine.NewSession hand out views of it (shared operators,
// per-view hit/miss counters).
func WithSharedPlanCache(maxEntries, shards int) EngineOption {
	return serve.WithSharedPlanCache(maxEntries, shards)
}

// WithEngineConfig replaces the optimizer configuration the engine's
// tenant sessions run under (default DefaultConfig).
func WithEngineConfig(cfg Config) EngineOption { return serve.WithConfig(cfg) }

// WithCalibration attaches an engine-level shared cost-model calibrator:
// every tenant session streams its measured operator executions into it,
// the fitted ReadBW/WriteBW/FlopRate/BroadcastBW constants flow back into
// plan costing, and cached plans re-optimize when the constants change.
// When path is non-empty, a valid profile there seeds the constants and
// Engine.SaveProfile persists the fit back; see docs/COST_MODEL.md for the
// profile format and divergence thresholds.
func WithCalibration(path string) EngineOption { return serve.WithCalibration(path) }

// Calibrator fits the cost model's hardware constants from measured
// executions; attach one to a Session (Session.Calib) or an engine
// (WithCalibration).
type Calibrator = codegen.Calibrator

// NewCalibrator returns a calibrator whose prior is the given cost model's
// constants (typically DefaultConfig().Costs).
func NewCalibrator(base codegen.CostModel) *Calibrator { return codegen.NewCalibrator(base) }

// CalibrationProfile is the persisted per-machine calibration result: the
// fitted cost-model constants plus provenance.
type CalibrationProfile = codegen.Profile

// LoadCalibrationProfile reads and validates a calibration profile JSON
// file, rejecting corrupt, version-mismatched, implausible, or stale
// profiles (callers then fall back to the paper-default constants).
func LoadCalibrationProfile(path string) (CalibrationProfile, error) {
	return codegen.LoadProfile(path)
}

// CostModel holds the analytical cost model's bandwidth and compute
// constants (Config.Costs).
type CostModel = codegen.CostModel

// ReoptConfig holds the divergence thresholds for mid-script
// re-optimization (Config.Reopt).
type ReoptConfig = codegen.ReoptConfig

// defaultEngine backs NewSession: created lazily on first use, it wraps
// the process-wide default pools, so plain sessions behave exactly as
// before engines existed.
var defaultEngine struct {
	once sync.Once
	e    *Engine
}

// DefaultEngine returns the lazily created engine behind NewSession.
func DefaultEngine() *Engine {
	defaultEngine.once.Do(func() { defaultEngine.e = serve.NewEngine() })
	return defaultEngine.e
}

// ScoreServer is a running multi-tenant scoring HTTP server; see
// ServeEngine.
type ScoreServer = serve.Server

// ScoreRequest is the /v1/run payload accepted by a ScoreServer.
type ScoreRequest = serve.RunRequest

// ScoreResponse is the /v1/run result returned by a ScoreServer.
type ScoreResponse = serve.RunResponse

// ScoreServerOption configures a ScoreServer started by ServeEngine; see
// WithFlightRecorder and WithPprof.
type ScoreServerOption = serve.ServerOption

// FlightRecorder is the serving path's fixed-size ring of completed
// request records with tail-sampled trace-span trees; exposed over
// GET /debug/requests on a ScoreServer.
type FlightRecorder = obs.FlightRecorder

// RequestRecord is one completed request retained by a FlightRecorder:
// identity (request ID, tenant, plan key), micro-batch placement, latency
// split, status, and — for slow or failed requests — the full span tree.
type RequestRecord = obs.RequestRecord

// WithFlightRecorder resizes a ScoreServer's request flight recorder:
// keep the last size requests, retaining full trace-span trees for
// requests slower than slow or that failed (slow <= 0 retains every
// tree). size < 0 disables recording and request tracing; size 0 keeps
// the default 256-entry ring.
func WithFlightRecorder(size int, slow time.Duration) ScoreServerOption {
	return serve.WithFlightRecorder(size, slow)
}

// WithPprof mounts Go's net/http/pprof profile handlers on a ScoreServer
// under /debug/pprof/ (off by default; profiles expose internals).
func WithPprof() ScoreServerOption { return serve.WithPprof() }

// WithSLOTarget sets an engine-wide per-request total-latency SLO:
// requests slower than target increment their tenant's SLO burn counter,
// reported by GET /v1/tenants and the serve.slo.burn metric.
func WithSLOTarget(target time.Duration) EngineOption {
	return serve.WithSLOTarget(target)
}

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (counters, gauges, and cumulative histograms). A
// ScoreServer serves the same rendering from GET /metrics when the
// request's Accept header asks for text/plain.
func WritePrometheus(w io.Writer, s MetricsSnapshot) error {
	return obs.WritePrometheus(w, s)
}

// ServeEngine starts the multi-tenant scoring server on addr (e.g.
// "localhost:8080", or "127.0.0.1:0" for an ephemeral port): POST /v1/run
// submits a script for a tenant with micro-batching of same-plan
// requests, load shedding (429 + Retry-After) under memory pressure,
// per-tenant quotas, and an X-Request-ID per request; GET /v1/tenants
// (latency quantiles, SLO burn), /metrics (JSON, or Prometheus text under
// Accept: text/plain), and /debug/requests expose serving state. Close
// the returned server to stop it (in-flight requests drain; /healthz
// turns 503 while draining).
func ServeEngine(addr string, e *Engine, opts ...ScoreServerOption) (*ScoreServer, error) {
	return serve.NewServer(addr, e, opts...)
}

// Sink receives observability events (explain reports, trace spans) from
// a session; see WithSink and NewWriterSink.
type Sink = obs.Sink

// WriterSink is a Sink that writes events to an io.Writer.
type WriterSink = obs.WriterSink

// NewWriterSink returns a Sink printing explain reports to w. Set
// IncludeSpans on the result to also print phase trace spans.
func NewWriterSink(w io.Writer) *WriterSink { return obs.NewWriterSink(w) }

// MultiSink fans observability events out to several sinks; use it to
// combine e.g. a WriterSink for explain output with a TraceSink.
type MultiSink = obs.MultiSink

// TraceSink buffers a run's hierarchical trace spans and exports them as
// Chrome trace-event JSON loadable in chrome://tracing or Perfetto; see
// NewTraceSink.
type TraceSink = obs.TraceSink

// NewTraceSink returns an empty TraceSink. Attach it via WithSink, run
// scripts, then call WriteFile (or WriteTo) to export the trace:
//
//	ts := sysml.NewTraceSink()
//	s := sysml.NewSession(sysml.WithSink(ts))
//	_ = s.Run(script)
//	_ = ts.WriteFile("trace.json")
func NewTraceSink() *TraceSink { return obs.NewTraceSink() }

// MetricsSnapshot is a point-in-time copy of a session's metrics
// (counters, gauges, histograms); returned by Session.Metrics.
type MetricsSnapshot = obs.Snapshot

// CostAuditSummary reports the optimizer's predicted cost against measured
// execution per fused-operator template; returned by Session.CostAudit.
type CostAuditSummary = obs.AuditSummary

// Typed errors returned by sessions: match with errors.As for field
// access, or errors.Is against a zero value for class-level tests, e.g.
// errors.Is(err, &sysml.ParseError{}).
type (
	// ParseError reports a lexical, syntactic, or compile-time script
	// error with its 1-based line.
	ParseError = dml.ParseError
	// UnboundVarError reports a reference to an unbound variable.
	UnboundVarError = dml.UnboundVarError
	// ShapeError reports a dimension mismatch (matmul shapes, non-scalar
	// where a scalar is required, index bounds).
	ShapeError = dml.ShapeError
)

// Stats aggregates codegen statistics (compiled plans, cache hits,
// evaluated plans, compile time).
type Stats = codegen.Stats

// Cluster is the simulated distributed backend; assign it to
// Session.Dist (or use WithCluster) to execute large operators across
// simulated executors with broadcast/shuffle accounting.
type Cluster = dist.Cluster

// ClusterOption configures a Cluster at construction time; see
// WithExecutors and WithFaultPlan.
type ClusterOption = dist.Option

// NewCluster returns a simulated cluster mirroring the paper's 6-executor
// setup. Options adjust the executor count or attach a fault-injection
// plan:
//
//	cl := sysml.NewCluster(
//		sysml.WithExecutors(8),
//		sysml.WithFaultPlan(&sysml.FaultPlan{Seed: 7, TransientRate: 0.05}),
//	)
func NewCluster(opts ...ClusterOption) *Cluster { return dist.NewCluster(opts...) }

// WithExecutors overrides the simulated executor count (default 6).
func WithExecutors(n int) ClusterOption { return dist.WithExecutors(n) }

// WithFaultPlan attaches a deterministic fault-injection plan to the
// cluster: seeded transient task failures, a scheduled executor kill, and
// straggler slowdowns. The panel scheduler every map stage runs, with or
// without a plan, recovers via retries with backoff, lineage-based
// reassignment, and speculative execution; results are unchanged, and
// recovery activity is surfaced in Session.Metrics ("dist.fault.*",
// "dist.retry.*", "dist.spec.*") and the EXPLAIN report's FAULTS
// subsection.
func WithFaultPlan(p *FaultPlan) ClusterOption { return dist.WithFaultPlan(p) }

// FaultPlan is a deterministic, seedable fault-injection plan for a
// simulated cluster; zero-valued fields inject nothing. See the
// internal/dist package and DESIGN.md §11 for the recovery semantics.
type FaultPlan = dist.FaultPlan

// FaultStats counts injected faults and recovery actions on a cluster;
// returned by Cluster.FaultStats.
type FaultStats = dist.FaultStats
