package dml

import (
	"container/list"
	"context"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"sysml/internal/codegen"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/obs"
	"sysml/internal/par"
	"sysml/internal/rewrite"
	"sysml/internal/runtime"
)

// Session executes DML-subset scripts. Statement blocks compile to HOP
// DAGs that flow through rewrites and the codegen optimizer; the plan cache
// and codegen statistics persist across blocks and loop iterations
// (dynamic recompilation per §2.1).
type Session struct {
	Config codegen.Config
	Cache  *codegen.PlanCache
	Stats  *codegen.Stats
	Env    runtime.Env
	Out    io.Writer
	Dist   runtime.DistBackend

	// Par is the worker pool that executes this session's parallel regions
	// and Alloc the buffer pool backing its matrix allocations. Both are
	// nil-safe: a nil pool delegates to the process-wide default, so a
	// plain NewSession behaves exactly as before. A serving engine sets
	// both so concurrent tenants stay isolated in scheduling and memory
	// accounting.
	Par   *par.Pool
	Alloc *matrix.BufPool

	// Obs collects runtime metrics (per-operator timings, fused-operator
	// invocations, phase breakdowns). Always non-nil for sessions built via
	// NewSession; a nil Obs disables collection (all methods are nil-safe).
	Obs *obs.Metrics

	// Sink, when non-nil, receives explain reports and trace spans for
	// every optimized statement block. Attach an *obs.TraceSink to export
	// a run as Chrome trace-event JSON.
	Sink obs.Sink

	// Audit is the cost-audit ledger: predicted vs measured cost of every
	// executed operator that carries an optimizer prediction. Always
	// non-nil for sessions built via NewSession; nil disables auditing.
	Audit *obs.Audit

	// Calib, when non-nil, is the online cost-model calibrator: it receives
	// every audited execution observation, and whenever its fitted
	// constants change generation the session adopts them into
	// Config.Costs and re-optimizes cached block plans lazily on their
	// next use. A serving engine shares one calibrator across all tenant
	// sessions (the per-machine profile is an engine-level property).
	Calib *codegen.Calibrator

	// Blocks counts compiled statement blocks (optimized HOP DAGs);
	// BlockCacheHits counts reuses of previously optimized blocks.
	Blocks         int64
	BlockCacheHits int64

	blockCache map[any][]*blockEntry   // cached plans by block, at most MaxBlockPlans in all
	blockLRU   list.List               // of *blockEntry, most recently used first
	programs   []program               // parsed scripts, most recently run first, at most MaxPrograms
	bound      map[*matrix.Matrix]bool // matrices handed in via Bind (caller-owned)
	// produced holds the compression candidates the script itself produced
	// (setEnvAll wrote them as new results) and that are still bound: their
	// compression is decided by the block plans that read them (compress.go).
	// A value Bind or a serving request put into Env is in no such set.
	produced map[*matrix.Matrix]struct{}

	nnzHints map[string]int64 // sparsity estimates from BindWithNnz, dropped on divergence
	calibGen uint64           // calibrator generation Config.Costs was last synced to
	feedback runtime.Feedback // of the block in execution
	orphans  []*matrix.Matrix // setEnvAll's scratch
}

// blockEntry is one planned statement block (or loop predicate): what a
// compile of its statements produced under one set of observations of the
// symbol table, and all an execution needs.
//
// A block is identified by its first statement (a predicate by its
// expression) in a parsed script the session keeps, so the identity survives
// a re-run of the same script text. One block can have several plans — the
// same statements compiled under other shapes, sparsities or constants;
// lookup takes the one whose access log replays unchanged (access.go),
// before any hop is built.
//
// The plan has parameters: slices are the DAG's partial row-range index hops
// in topological order, sites the accRows of log that give each its current
// bounds (X[lo:hi,] in a mini-batch loop is one plan). inputs are the
// transient reads that are not also outputs and reads the compression
// decisions the plan takes for them (compress.go); replanned says the entry
// was already optimized once more because one of them was compressed.
// hashes are the compiled operators' plan-cache hashes (invalidated when the
// entry is discarded, so no view serves a stale operator), calibGen the
// calibration generation the plan was costed under, prints the block's print
// statements: string literals and printRefs, names of DAG outputs.
type blockEntry struct {
	id        any
	log       []access
	dag       *hop.DAG
	sched     *runtime.Schedule
	prints    [][]any
	inputs    []*hop.Hop
	hashes    []uint64
	calibGen  uint64
	lru       *list.Element
	slices    []*hop.Hop
	sites     []int
	reads     []*readPlan
	replanned bool
}

type printRef string

// program is a parsed script a session keeps, so that running the same text
// again finds the blocks it planned (serving sessions and prepared scripts
// re-run one script).
type program struct {
	text  string
	stmts []Stmt
}

// MaxBlockPlans bounds a session's block-plan cache (the "block.cache.size"
// gauge). A session that keeps seeing new scripts (a serving tenant fed
// ad-hoc queries) would otherwise retain a HOP DAG, its access log and its
// compiled operators per script forever; past the bound the least recently
// used plan is discarded, so the blocks that keep running stay cached
// through a flood of one-off ones. No algorithm script comes near it (the
// largest has ~20 distinct blocks and a dozen predicates).
const MaxBlockPlans = 64

// MaxPrograms bounds the parsed scripts a session keeps (the
// "program.cache.size" gauge), least recently run discarded first. The
// plans of a discarded script age out of the block-plan cache on their own.
const MaxPrograms = 32

// execCtx is the execution context threaded into every runtime call:
// the session's own pools, or the process defaults when unset.
func (s *Session) execCtx() matrix.Ctx {
	return matrix.Ctx{Par: s.Par, Buf: s.Alloc}
}

// NewSession creates a session with the given optimizer configuration.
func NewSession(cfg codegen.Config) *Session {
	return &Session{
		Config: cfg,
		Cache:  codegen.NewPlanCacheSized(cfg.PlanCache, cfg.PlanCacheSize),
		Stats:  codegen.NewStats(),
		Env:    runtime.Env{},
		Out:    os.Stdout,
		Obs:    obs.NewMetrics(),
		Audit:  obs.NewAudit(),
	}
}

// Bind sets an input variable. The matrix stays caller-owned: Close will
// not release it back to the session's buffer pool.
func (s *Session) Bind(name string, m *matrix.Matrix) {
	if s.bound == nil {
		s.bound = map[*matrix.Matrix]bool{}
	}
	s.bound[m] = true
	s.setEnv(name, m)
}

// BindScalar sets a scalar input variable.
func (s *Session) BindScalar(name string, v float64) { s.setEnv(name, matrix.NewScalar(v)) }

// BindWithNnz is Bind with an explicit nonzero-count estimate: block plans
// reading name are optimized under this sparsity instead of the matrix's
// scanned count (SystemML's metadata-driven compilation — exact counts are
// not always available at bind time). A wrong estimate is self-correcting
// when Config.Reopt is enabled: the executed block measures the actual
// nonzero count, and on divergence beyond reoptSparsityFactor the hint is
// dropped and the block's cached plan invalidated, so the next execution
// (e.g. the next loop iteration) runs a plan optimized with exact counts.
func (s *Session) BindWithNnz(name string, m *matrix.Matrix, nnz int64) {
	s.Bind(name, m)
	if s.nnzHints == nil {
		s.nnzHints = map[string]int64{}
	}
	s.nnzHints[name] = nnz
}

// setEnv rebinds a variable, dropping the distributed backend's broadcast
// handle of the previous binding: after a rebind the old matrix may be
// recycled or mutated out from under a cached handle, so reusing it would
// serve stale data. (The matrix may still reach executors through another
// binding — that costs a conservative re-broadcast, never wrong results.)
//
// A session-owned previous result that no other variable references is
// released back to the buffer pool: re-running a block would otherwise
// leak every overwritten output to GC and large re-allocations would miss
// the pool. This extends the Reset contract — a matrix retrieved via Get
// becomes invalid once its variable is reassigned by a later Run.
func (s *Session) setEnv(name string, m *matrix.Matrix) {
	old, ok := s.Env[name]
	if ok && old != m {
		if s.Dist != nil {
			s.Dist.Invalidate(old)
		}
		if !s.bound[old] && !s.envRefs(name, old) {
			delete(s.produced, old)
			old.Release()
		}
	}
	s.Env[name] = m
}

// setEnvAll rebinds a block's whole output set, then releases overwritten
// session-owned results that no variable references anymore. The release
// must run after every assignment: an output may itself be the previous
// matrix of a different name (tmp = Y alongside Y = Y + 1), so releasing
// per-assignment could recycle storage a pending binding still needs.
//
// A compression candidate among the outputs that no variable held before
// the block is a value the script produced; an output that passes an
// existing binding on (Y = X) stays what it was.
func (s *Session) setEnvAll(names []string, out []*matrix.Matrix) {
	if s.Config.Compress != codegen.CompressOff {
		for _, m := range out {
			if s.compressCandidate(m) && !s.envRefs("", m) {
				if s.produced == nil {
					s.produced = map[*matrix.Matrix]struct{}{}
				}
				s.produced[m] = struct{}{}
			}
		}
	}
	orphans := s.orphans[:0]
	for i, name := range names {
		m := out[i]
		if old, ok := s.Env[name]; ok && old != m {
			if s.Dist != nil {
				s.Dist.Invalidate(old)
			}
			if !s.bound[old] && !slices.Contains(orphans, old) {
				orphans = append(orphans, old)
			}
		}
		s.Env[name] = m
	}
	for _, old := range orphans {
		if !s.envRefs("", old) {
			delete(s.produced, old)
			old.Release()
		}
	}
	clear(orphans)
	s.orphans = orphans[:0]
}

// envRefs reports whether any variable other than name is bound to m (an
// aliased result must survive the overwrite of one of its names).
func (s *Session) envRefs(name string, m *matrix.Matrix) bool {
	for n, v := range s.Env {
		if n != name && v == m {
			return true
		}
	}
	return false
}

// Reset releases the session's pooled intermediates back to its buffer
// pool and clears the environment, keeping the optimized block-plan cache
// warm for the next same-shaped run (the serving path's pooled sessions).
// Matrices the caller handed in via Bind are left untouched; matrices
// retrieved via Get become invalid (their storage may be recycled).
func (s *Session) Reset() {
	for name, m := range s.Env {
		if !s.bound[m] {
			m.Release()
		}
		delete(s.Env, name)
	}
	s.bound = nil
	s.produced = nil
}

// Close is Reset plus dropping the block plans and parsed scripts: full
// teardown of the session's pooled state. Close is idempotent and the
// session may be reused afterwards with fresh bindings.
func (s *Session) Close() {
	s.Reset()
	s.blockCache = nil
	s.blockLRU.Init()
	s.programs = nil
}

// Run parses and executes a script against the bound inputs; results stay
// in the session environment.
func (s *Session) Run(script string) error {
	return s.RunContext(context.Background(), script)
}

// RunContext is Run with cancellation: the context is checked between
// statement blocks and polled inside fused-operator and control-flow
// loops, so canceling promptly aborts even long-running scripts. The
// session environment keeps all results of blocks that completed before
// the cancellation; the partial output of the canceled block is discarded.
//
// When the context carries a request ID (obs.ContextWithRequestID — the
// serving frontend threads the X-Request-ID of every /v1/run), the run's
// root span is annotated with it, so the whole
// parse/compile/optimize/execute hierarchy is attributable to the
// originating request in trace exports.
func (s *Session) RunContext(ctx context.Context, script string) error {
	return s.RunInSpan(ctx, script, obs.Span{})
}

// RunInSpan is RunContext with an explicit parent trace span: when parent
// is active (sink-attached), the run's "run" span — and under it the full
// compile/optimize/execute/per-operator hierarchy — nests as a child of
// parent instead of opening a new root. The serving frontend uses this to
// stitch each request's execution into its request-scoped span tree; a
// zero parent behaves exactly like RunContext.
func (s *Session) RunInSpan(ctx context.Context, script string, parent obs.Span) error {
	var root obs.Span
	if parent.Active() {
		root = parent.Child("run")
	} else {
		root = obs.StartSpan(nil, s.Sink, "run")
	}
	if rid := obs.RequestIDFromContext(ctx); rid != "" {
		root.Annotate(obs.KV("request.id", rid))
	}
	defer root.End()
	sp := root.Phase(s.Obs, "parse")
	stmts, err := s.parse(script)
	sp.End()
	if err != nil {
		return err
	}
	return s.exec(ctx, root, stmts)
}

// parse returns the statements of a script, parsed once per text the
// session keeps.
func (s *Session) parse(script string) ([]Stmt, error) {
	for i, p := range s.programs {
		if p.text == script {
			copy(s.programs[1:i+1], s.programs[:i])
			s.programs[0] = p
			return p.stmts, nil
		}
	}
	prog, err := Parse(script)
	if err != nil {
		return nil, err
	}
	if len(s.programs) < MaxPrograms {
		s.programs = append(s.programs, program{})
	}
	copy(s.programs[1:], s.programs)
	s.programs[0] = program{text: script, stmts: prog.Stmts}
	return prog.Stmts, nil
}

// Get returns a variable from the environment, or an *UnboundVarError if
// the name is not bound.
func (s *Session) Get(name string) (*matrix.Matrix, error) {
	m, ok := s.Env[name]
	if !ok {
		return nil, &UnboundVarError{Name: name}
	}
	return m, nil
}

// Scalar returns a scalar variable's value. It returns an
// *UnboundVarError if the name is not bound and a *ShapeError if the
// variable is not 1x1.
func (s *Session) Scalar(name string) (float64, error) {
	m, ok := s.Env[name]
	if !ok {
		return 0, &UnboundVarError{Name: name}
	}
	if m.Rows != 1 || m.Cols != 1 {
		return 0, shapeErrf(0, "variable %q is not scalar (%dx%d)", name, m.Rows, m.Cols)
	}
	return m.Scalar(), nil
}

// Explain compiles and runs the script on a shadow of this session (same
// configuration and input bindings, separate environment and statistics)
// and returns the concatenated EXPLAIN reports of every optimized block:
// HOP DAG before/after fusion, memo-table interesting points, evaluated
// vs. hypothetical plan counts, estimated plan cost, and constructed
// fused operators. The receiving session is left untouched.
func (s *Session) Explain(script string) (string, error) {
	col := &obs.Collector{}
	shadow := &Session{
		Config:   s.Config,
		Cache:    codegen.NewPlanCacheSized(s.Config.PlanCache, s.Config.PlanCacheSize),
		Stats:    codegen.NewStats(),
		Env:      maps.Clone(s.Env),
		Out:      io.Discard,
		Dist:     s.Dist,
		Par:      s.Par,
		Alloc:    s.Alloc,
		Obs:      obs.NewMetrics(),
		Audit:    obs.NewAudit(),
		Sink:     col,
		Calib:    s.Calib,
		nnzHints: maps.Clone(s.nnzHints),
		produced: maps.Clone(s.produced),
	}
	before := shadow.Metrics()
	if err := shadow.Run(script); err != nil {
		return "", err
	}
	after := shadow.Metrics()
	var b strings.Builder
	for _, e := range col.Events() {
		if e.Kind == obs.EventExplain {
			b.WriteString(e.Text)
		}
	}
	// The shadow shares this session's pools, cluster, calibrator and input
	// bindings, so the run sections show what this run caused, and
	// compressed attachments and broadcast handles it made warm the real
	// session.
	b.WriteString(shadow.RunReport(before, after))
	return b.String(), nil
}

// metricsWriter is the one view the session takes of its distributed
// backend beyond runtime.DistBackend: internal/dist.Cluster writes its own
// dist.* instruments (declared here to keep internal/dml independent of
// internal/dist).
type metricsWriter interface{ WriteMetrics(obs.Snapshot) }

// Metrics returns a point-in-time snapshot of all session metrics:
// runtime counters and histograms from execution, codegen optimizer
// statistics, parallel-for utilization and buffer-pool usage (of the
// session's own pools, or the process defaults when none are set), and —
// when a distributed backend is attached — broadcast/shuffle volumes.
func (s *Session) Metrics() obs.Snapshot {
	snap := s.Obs.Snapshot()
	if s.Stats != nil {
		snap.Counters["codegen.dags.optimized"] = s.Stats.DAGsOptimized
		snap.Counters["codegen.cplans.constructed"] = s.Stats.CPlansConstructed
		snap.Counters["codegen.operators.compiled"] = s.Stats.OperatorsCompiled
		snap.Counters["codegen.plancache.hits"] = s.Stats.CacheHits
		snap.Counters["codegen.plans.evaluated"] = s.Stats.PlansEvaluated
		snap.Gauges["codegen.time.seconds"] = s.Stats.CodegenTime.Seconds()
		snap.Gauges["codegen.compile.seconds"] = s.Stats.CompileTime.Seconds()
	}
	if s.Cache != nil {
		s.Cache.WriteMetrics(snap)
	}
	snap.Counters["block.optimized"] = s.Blocks
	snap.Counters["block.reused"] = s.BlockCacheHits
	snap.Gauges["block.cache.size"] = float64(s.blockLRU.Len())
	snap.Gauges["program.cache.size"] = float64(len(s.programs))
	if s.Calib != nil {
		s.Calib.WriteMetrics(snap)
	}
	s.Par.WriteMetrics(snap)
	s.Alloc.WriteMetrics(snap)
	if d, ok := s.Dist.(metricsWriter); ok {
		d.WriteMetrics(snap)
	}
	return snap
}

// CostAudit returns the session's cost-audit summary: per-template
// relative-error histograms of the optimizer's predicted cost against the
// measured wall time of every executed operator, plus the worst-predicted
// operator groups. Empty when no audited statements have run.
func (s *Session) CostAudit() obs.AuditSummary {
	return s.Audit.Summary()
}

func (s *Session) exec(ctx context.Context, root obs.Span, stmts []Stmt) error {
	// A statement block is a maximal run of assignments and prints.
	start := 0
	flush := func(end int) error {
		block := stmts[start:end]
		start = end + 1
		if len(block) == 0 {
			return nil
		}
		return s.runBlock(ctx, root, block)
	}
	for i, st := range stmts {
		if err := ctx.Err(); err != nil {
			return err
		}
		switch n := st.(type) {
		case *Assign, *PrintStmt:
			continue
		case *IfStmt:
			if err := flush(i); err != nil {
				return err
			}
			cond, err := s.evalScalar(ctx, root, n.Cond)
			if err != nil {
				return err
			}
			if cond != 0 {
				if err := s.exec(ctx, root, n.Then); err != nil {
					return err
				}
			} else if len(n.Else) > 0 {
				if err := s.exec(ctx, root, n.Else); err != nil {
					return err
				}
			}
		case *WhileStmt:
			if err := flush(i); err != nil {
				return err
			}
			for iter := 0; ; iter++ {
				if iter > 1_000_000 {
					return fmt.Errorf("dml: line %d: while loop exceeded iteration bound", n.Line)
				}
				if err := ctx.Err(); err != nil {
					return err
				}
				cond, err := s.evalScalar(ctx, root, n.Cond)
				if err != nil {
					return err
				}
				if cond == 0 {
					break
				}
				if err := s.exec(ctx, root, n.Body); err != nil {
					return err
				}
			}
		case *ForStmt:
			if err := flush(i); err != nil {
				return err
			}
			from, err := s.evalScalar(ctx, root, n.From)
			if err != nil {
				return err
			}
			to, err := s.evalScalar(ctx, root, n.To)
			if err != nil {
				return err
			}
			for i := from; i <= to; i++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				s.setEnv(n.Var, matrix.NewScalar(i))
				if err := s.exec(ctx, root, n.Body); err != nil {
					return err
				}
			}
		}
	}
	return flush(len(stmts))
}

// lookup returns the cached plan of a block whose access log replays
// unchanged against the current symbol table, or nil. Plans of one block
// differ in an observation both logged, so at most one matches.
func (s *Session) lookup(id any) *blockEntry {
	if !s.Config.ReuseBlockPlans {
		return nil
	}
	for _, e := range s.blockCache[id] {
		if replay(e.log, s.Env, s.nnzHints) {
			// The offsets of the block's row slices are parameters of the plan.
			for i, h := range e.slices {
				a := &e.log[e.sites[i]]
				h.RL, h.RU = a.rl, a.ru
			}
			s.blockLRU.MoveToFront(e.lru)
			return e
		}
	}
	return nil
}

// compile translates a block's statements, or a predicate's expression, into
// its rewritten HOP DAG: an entry that is not planned yet.
func (s *Session) compile(stmts []Stmt, cond Expr) (*blockEntry, error) {
	c := newBlockCompiler(s.Env, s.nnzHints)
	e := &blockEntry{id: cond, calibGen: s.calibGen}
	if cond == nil {
		e.id = stmts[0]
	}
	prints := 0
	for _, st := range stmts {
		switch n := st.(type) {
		case *Assign:
			if err := c.assign(n.Target, n.Value); err != nil {
				return nil, err
			}
		case *PrintStmt:
			var po []any
			for _, part := range flattenConcat(n.Value) {
				if str, ok := part.(*Str); ok {
					po = append(po, str.Value)
					continue
				}
				h, err := c.compile(part)
				if err != nil {
					return nil, err
				}
				name := fmt.Sprintf("__print%d", prints)
				prints++
				c.d.Output(name, h)
				po = append(po, printRef(name))
			}
			e.prints = append(e.prints, po)
		}
	}
	if cond != nil {
		h, err := c.compile(cond)
		if err != nil {
			return nil, err
		}
		c.d.Output("__cond", h)
	}
	e.dag, _ = rewrite.Apply(c.d)
	e.log = c.log
	for _, h := range hop.TopoOrder(e.dag.Roots()) {
		if _, out := e.dag.Outputs[h.Name]; h.Kind == hop.OpData && !out {
			e.inputs = append(e.inputs, h)
		}
		if isRowSlice(h) {
			e.slices = append(e.slices, h)
			e.sites = append(e.sites, sameRows(e.log, h.RL, h.RU))
		}
	}
	return e, nil
}

// remember makes a freshly planned entry executable and, when block plans
// are reused, caches it, discarding the least recently used plan past the
// bound.
func (s *Session) remember(e *blockEntry) {
	e.sched = runtime.NewSchedule(e.dag)
	// A row slice that no logged index accounts for could not be given its
	// offsets on a reuse: such a plan runs once.
	if !s.Config.ReuseBlockPlans || slices.Contains(e.sites, -1) {
		return
	}
	e.hashes = codegen.PlanHashes(e.dag)
	if s.blockCache == nil {
		s.blockCache = map[any][]*blockEntry{}
	}
	s.blockCache[e.id] = append(s.blockCache[e.id], e)
	e.lru = s.blockLRU.PushFront(e)
	if s.blockLRU.Len() > MaxBlockPlans {
		s.invalidateBlock(s.blockLRU.Back().Value.(*blockEntry), "block.cache.evictions")
	}
}

// runBlock plans — or finds planned — and executes one statement block,
// recording a trace span per phase and emitting an EXPLAIN report for every
// fresh optimization when a sink is attached.
func (s *Session) runBlock(ctx context.Context, root obs.Span, stmts []Stmt) error {
	s.syncCalibration()
	// Look the block's cached plan up while the sizes, sparsity and constants
	// it was compiled for are unchanged (SystemML recompiles only dirty
	// blocks). An entry optimized under an older calibration generation is
	// discarded here — lazily, on its next use — and re-optimized under the
	// current constants.
	spc := root.Phase(s.Obs, "compile")
	entry := s.lookup(stmts[0])
	if entry != nil && entry.calibGen != s.calibGen {
		s.invalidateBlock(entry, "reopt.invalidations")
		s.Obs.Inc("reopt.calib")
		entry = nil
	}
	var fresh *blockEntry
	var err error
	if entry == nil {
		fresh, err = s.compile(stmts, nil)
	}
	spc.End()
	if err != nil {
		return err
	}

	// Compression pass: reuse or decide compressed forms of the block's
	// reads and annotate their OpData hops, so that a block optimized below
	// sees compressed sizes in its read terms. A cached plan that compressed
	// a script-produced value just now is optimized once more, under the
	// annotation, and keeps the value's read history.
	spz := root.Phase(s.Obs, "compress")
	if entry == nil {
		s.compressPass(fresh.inputs, nil)
	} else if s.compressPass(entry.inputs, entry) && !entry.replanned {
		s.invalidateBlock(entry, "reopt.invalidations")
		s.Obs.Inc("reopt.compress")
		if fresh, err = s.compile(stmts, nil); err != nil {
			spz.End()
			return err
		}
		s.annotateReads(fresh.inputs)
		fresh.reads, fresh.replanned = entry.reads, true
		entry = nil
	}
	spz.End()

	spo := root.Phase(s.Obs, "optimize")
	var rep *codegen.PlanReport
	if entry != nil {
		s.BlockCacheHits++
		s.Obs.Inc("block.cache.hits")
	} else {
		entry = fresh
		if s.Sink != nil {
			rep = &codegen.PlanReport{}
		}
		entry.dag = codegen.OptimizeTraced(entry.dag, &s.Config, s.Cache, s.Stats, rep, spo)
		s.Blocks++
		s.remember(entry)
		if s.Config.ReuseBlockPlans || rep != nil {
			entry.reads = s.planReads(entry.dag, entry.reads)
		}
		if rep != nil {
			rep.Compressed = s.compressReport(entry.reads)
		}
		if s.Config.ReuseBlockPlans {
			s.Obs.Inc("block.cache.misses")
		}
	}
	spo.End()
	if rep != nil {
		s.Sink.Emit(obs.Event{
			Kind: obs.EventExplain,
			Name: fmt.Sprintf("block %d", s.Blocks),
			Text: fmt.Sprintf("# EXPLAIN block %d\n%s", s.Blocks, rep.String()),
		})
	}

	spe := root.Phase(s.Obs, "execute")
	opts := runtime.Options{
		Dist: s.Dist, Ctx: ctx, Metrics: s.Obs, Trace: spe, Audit: s.Audit,
		Exec: s.execCtx(),
	}
	if s.Calib != nil {
		opts.Calib = s.Calib
	}
	if s.Config.Reopt.Enabled {
		s.feedback = runtime.Feedback{Inputs: s.feedback.Inputs[:0]}
		if len(s.nnzHints) > 0 {
			s.feedback.Track = make(map[string]bool, len(s.nnzHints))
			for name := range s.nnzHints {
				s.feedback.Track[name] = true
			}
		}
		opts.Feedback = &s.feedback
	}
	out, err := entry.sched.Run(s.Env, opts)
	spe.End()
	if err != nil {
		return err
	}
	if opts.Feedback != nil {
		s.checkReopt(entry, opts.Feedback)
	}
	s.setEnvAll(entry.dag.OutputNames(), out)
	for _, po := range entry.prints {
		line := ""
		for _, part := range po {
			switch v := part.(type) {
			case string:
				line += v
			case printRef:
				m := s.Env[string(v)]
				if m.Rows == 1 && m.Cols == 1 {
					line += fmt.Sprintf("%g", m.Scalar())
				} else {
					line += m.String()
				}
			}
		}
		fmt.Fprintln(s.Out, line)
	}
	return nil
}

// syncCalibration adopts the calibrator's current constants into
// Config.Costs when the calibration generation advanced. Cached block
// plans optimized under the old generation are invalidated lazily when
// next looked up (see runBlock), so re-optimization cost is only paid for
// blocks that actually run again.
func (s *Session) syncCalibration() {
	if s.Calib == nil {
		return
	}
	if gen := s.Calib.Gen(); gen != s.calibGen {
		s.calibGen = gen
		s.Config.Costs = s.Calib.Model()
	}
}

// The divergence factors of mid-script re-optimization (Config.Reopt).
const (
	// reoptSparsityFactor: an input's actual nonzero count beyond this
	// factor of its estimate, in either direction, discards the plan.
	reoptSparsityFactor = 4
	// reoptMinCells: smaller inputs never trigger (they cannot change a
	// plan choice).
	reoptMinCells = 256
	// reoptTimeFactor: a block's measured time beyond this factor of its
	// prediction, in either direction, is evidence for the calibrator.
	reoptTimeFactor = 8
)

// checkReopt inspects one block execution's feedback for divergence
// between the optimizer's assumptions and observed reality:
//
//   - sparsity: a tracked input's actual nonzero count differs from its
//     compile-time estimate by more than reoptSparsityFactor. The stale
//     hint is dropped and the block's plan discarded, so the next execution
//     compiles (and optimizes) under the exact count — the divergence
//     cannot recur.
//   - time: the block's measured operator seconds diverge from the
//     predicted seconds by more than reoptTimeFactor, on a block that ran
//     at least Reopt.MinSec. Estimates don't
//     change by themselves: re-optimizing under the same constants
//     re-derives the same plan, so the plan stays. What the evidence can
//     change is the constants — with a calibrator attached it is folded in
//     now rather than at the refit cadence, and a refit that moves them
//     invalidates every plan of the older generation at its next lookup.
func (s *Session) checkReopt(entry *blockEntry, fb *runtime.Feedback) {
	for _, in := range fb.Inputs {
		cells := in.Rows * in.Cols
		if cells < reoptMinCells {
			continue
		}
		est := float64(in.EstNnz)
		if in.EstNnz < 0 {
			est = float64(cells) // dense assumption
		}
		if est < 1 {
			est = 1
		}
		act := float64(in.ActualNnz)
		if act < 1 {
			act = 1
		}
		if ratio := act / est; ratio > reoptSparsityFactor || ratio < 1.0/reoptSparsityFactor {
			delete(s.nnzHints, in.Name)
			s.Obs.Inc("reopt.sparsity")
			s.invalidateBlock(entry, "reopt.invalidations")
		}
	}
	if fb.ActualSec >= s.Config.Reopt.MinSec && fb.PredSec > 0 {
		if ratio := fb.PredSec / fb.ActualSec; ratio > reoptTimeFactor || ratio < 1.0/reoptTimeFactor {
			s.Obs.Inc("reopt.time")
			if s.Calib != nil {
				s.Calib.Refit()
				s.syncCalibration()
			}
		}
	}
}

// invalidateBlock discards one cached block plan and invalidates its
// compiled operators in the plan cache (all views of a shared cache stop
// serving them), counting it under the caller's reason: a re-optimization
// ("reopt.invalidations") or an LRU eviction ("block.cache.evictions").
func (s *Session) invalidateBlock(e *blockEntry, counter string) {
	if e.lru == nil {
		return
	}
	s.blockLRU.Remove(e.lru)
	e.lru = nil
	i := slices.Index(s.blockCache[e.id], e)
	if plans := slices.Delete(s.blockCache[e.id], i, i+1); len(plans) == 0 {
		delete(s.blockCache, e.id)
	} else {
		s.blockCache[e.id] = plans
	}
	if s.Cache != nil {
		s.Cache.Invalidate(e.hashes...)
	}
	s.Obs.Inc(counter)
}

// isRowSlice reports whether h selects a proper part of its input's rows.
// No template takes such a hop (they open and fuse an index only over the
// full row range), so it always runs as its own IndexRange and a cached
// plan can take its offsets as parameters.
func isRowSlice(h *hop.Hop) bool {
	return h.Kind == hop.OpIndex && (h.RL != 0 || h.RU != h.Inputs[0].Rows)
}

// flattenConcat splits a "+"-chain mixing strings and expressions into
// printable parts.
func flattenConcat(e Expr) []Expr {
	if b, ok := e.(*BinExpr); ok && b.Op == "+" && (containsStr(b.L) || containsStr(b.R)) {
		return append(flattenConcat(b.L), flattenConcat(b.R)...)
	}
	return []Expr{e}
}

func containsStr(e Expr) bool {
	switch n := e.(type) {
	case *Str:
		return true
	case *BinExpr:
		return n.Op == "+" && (containsStr(n.L) || containsStr(n.R))
	}
	return false
}

// evalScalar evaluates a predicate or loop-bound expression through the
// regular block pipeline (a one-output DAG, not optimized), mirroring
// SystemML's handling of scalar instructions.
func (s *Session) evalScalar(ctx context.Context, root obs.Span, e Expr) (float64, error) {
	entry := s.lookup(e)
	if entry == nil {
		var err error
		if entry, err = s.compile(nil, e); err != nil {
			return 0, err
		}
		s.remember(entry)
	}
	sp := root.Child("evalScalar")
	out, err := entry.sched.Run(s.Env, runtime.Options{
		Dist: s.Dist, Ctx: ctx, Metrics: s.Obs, Trace: sp, Audit: s.Audit,
		Exec: s.execCtx(),
	})
	sp.End()
	if err != nil {
		return 0, err
	}
	m := out[0]
	if m.Rows != 1 || m.Cols != 1 {
		return 0, shapeErrf(0, "condition is not scalar (%dx%d)", m.Rows, m.Cols)
	}
	return m.Scalar(), nil
}
