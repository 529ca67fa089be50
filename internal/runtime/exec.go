package runtime

import (
	"context"
	"fmt"
	"slices"
	"time"

	"sysml/internal/compress"
	"sysml/internal/cplan"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/obs"
)

// Env maps variable names to matrices (SystemML's symbol table; scalars are
// held as 1×1 matrices).
type Env map[string]*matrix.Matrix

// Options configures DAG execution.
type Options struct {
	// Dist, when non-nil, executes operators marked ExecDist through the
	// simulated distributed backend.
	Dist DistBackend

	// Exec is the matrix execution context — the worker pool running the
	// kernels' parallel regions and the buffer pool their allocations draw
	// from. The zero value uses the process-wide defaults; engines inject
	// their own pools here so co-hosted engines stay isolated.
	Exec matrix.Ctx

	// Ctx, when non-nil, cancels execution: checked between operators and
	// polled inside the fused-operator skeleton loops.
	Ctx context.Context

	// Metrics, when non-nil, receives per-operator wall time, FLOP/byte
	// estimates vs. actual output bytes, and fused-operator invocation
	// counts.
	Metrics *obs.Metrics

	// Trace, when active (a sink-attached span), becomes the parent of one
	// child span per executed operator and of the distributed backend's
	// broadcast/shuffle spans, for timeline export via obs.TraceSink.
	Trace obs.Span

	// Observe, when non-nil, receives one predicted-vs-measured entry per
	// executed operator that carries a cost-model prediction (hop.PredSec >
	// 0, annotated by codegen.AnnotatePredictions): the interpreter's cost
	// audit and re-optimization evidence.
	Observe func(obs.AuditEntry)
}

// StopFn polls for cancellation; the fused-operator skeletons call it once
// per tile of rows (per column group over a compressed input). A nil StopFn
// never stops.
type StopFn func() bool

func (stop StopFn) stopped() bool { return stop != nil && stop() }

// DistBackend abstracts the simulated distributed runtime (implemented in
// internal/dist; injected here to avoid a dependency cycle).
type DistBackend interface {
	// ExecHop executes one distributed operator over already-computed
	// inputs and returns its result. sp is the executing operator's trace
	// span; the backend hangs broadcast/shuffle stage spans off it.
	ExecHop(h *hop.Hop, inputs []*matrix.Matrix, sp obs.Span) (*matrix.Matrix, bool)

	// Invalidate tells the backend that m's storage is about to be
	// recycled or its binding rewritten, so any broadcast handle derived
	// from it must be dropped. Called by the executor before releasing a
	// dead intermediate to the buffer pool and by the interpreter on every
	// variable rebind.
	Invalidate(m *matrix.Matrix)
}

// ExecuteDAG evaluates all outputs of a HOP DAG against the environment
// and returns the named results: NewSchedule and Run for a DAG executed once.
func ExecuteDAG(d *hop.DAG, env Env, opts Options) (Env, error) {
	vals, err := NewSchedule(d).Run(env, opts)
	if err != nil {
		return nil, err
	}
	out := make(Env, len(vals))
	for i, name := range d.OutputNames() {
		out[name] = vals[i]
	}
	return out, nil
}

// Schedule is what executing a HOP DAG needs beyond the values it runs
// over, computed once: the interpreter keeps one per cached block plan. It
// also owns the scratch state of its run in progress, so it executes on one
// goroutine at a time (a block plan belongs to one session).
type Schedule struct {
	steps   []step  // topological order, inputs before consumers
	outs    []int32 // steps of the DAG's OutputNames
	results []*matrix.Matrix
}

// step is one operator of a schedule; positions index Schedule.steps.
type step struct {
	h  *hop.Hop
	in []int32 // positions of h.Inputs
	// kill are the inputs this is the last consumer of, in the order of
	// their last occurrence (lineage-aware buffer recycling: a dead
	// intermediate's storage returns to the matrix buffer pool, where the
	// next NewDense of the same shape picks it up). A named DAG output never
	// dies.
	kill []int32
	// The strings the operator is observed under: trace span and audit
	// group, "op.<kind>", and for fused operators "spoof.<template>" and
	// "op.spoof.<template>".
	label, op, spoof, opSpoof string

	// Run state. val is the result, nil once dead; owned says its storage
	// is the executor's to recycle — ops such as ToDense can return an input
	// unchanged, and OpData results belong to the caller's environment.
	// bundle is the output set of a multi-output (Horizontal-template)
	// fused operator, whose val is a dummy scalar: OpSpoofOut extractors hand
	// each output to its consumers, and the bundle dies with its operator
	// (every extractor is a consumer).
	ins    []*matrix.Matrix
	val    *matrix.Matrix
	owned  bool
	bundle []*matrix.Matrix
}

// NewSchedule computes the execution schedule of d. The DAG's structure
// must not change afterwards; operator parameters (index bounds) may.
func NewSchedule(d *hop.DAG) *Schedule {
	topo := hop.TopoOrder(d.Roots())
	s := &Schedule{steps: make([]step, len(topo))}
	pos := make(map[*hop.Hop]int32, len(topo))
	last := make([]int, len(topo)) // last consumer of each position
	for p, h := range topo {
		pos[h] = int32(p)
		st := &s.steps[p]
		*st = step{h: h, label: h.String(), op: "op." + h.Kind.String(), ins: make([]*matrix.Matrix, len(h.Inputs))}
		if h.Kind == hop.OpSpoof {
			st.spoof, st.opSpoof = "spoof."+h.SpoofType, "op.spoof."+h.SpoofType
		}
		for _, in := range h.Inputs {
			st.in = append(st.in, pos[in])
			last[pos[in]] = p
		}
	}
	for _, name := range d.OutputNames() {
		s.outs = append(s.outs, pos[d.Outputs[name]])
		last[pos[d.Outputs[name]]] = -1
	}
	for p := range s.steps {
		st := &s.steps[p]
		for i, q := range st.in {
			if last[q] == p && !slices.Contains(st.in[i+1:], q) {
				st.kill = append(st.kill, q)
			}
		}
	}
	s.results = make([]*matrix.Matrix, len(s.outs))
	return s
}

// Run evaluates the DAG against the environment and returns its outputs in
// the order of the DAG's OutputNames. The slice is the schedule's and valid
// until its next Run.
func (s *Schedule) Run(env Env, opts Options) ([]*matrix.Matrix, error) {
	// Forget the run's matrices afterwards: an idle plan pins none.
	defer func() {
		for p := range s.steps {
			st := &s.steps[p]
			clear(st.ins)
			st.val, st.owned, st.bundle = nil, false, nil
		}
	}()
	var stop StopFn
	if opts.Ctx != nil {
		ctx := opts.Ctx
		stop = func() bool {
			select {
			case <-ctx.Done():
				return true
			default:
				return false
			}
		}
	}
	observed := opts.Metrics != nil || opts.Observe != nil
	for p := range s.steps {
		st := &s.steps[p]
		h, ins := st.h, st.ins
		if stop.stopped() {
			return nil, opts.Ctx.Err()
		}
		for i, q := range st.in {
			ins[i] = s.steps[q].val
		}
		var sp obs.Span
		if opts.Trace.Active() {
			sp = opts.Trace.Child(st.label,
				obs.KV("hop", h.ID),
				obs.KV("rows", h.Rows),
				obs.KV("cols", h.Cols),
				obs.KV("exec", h.ExecType.String()))
		}
		var start time.Time
		if observed {
			start = time.Now()
		}
		var m *matrix.Matrix
		switch {
		case h.Kind == hop.OpSpoofOut:
			b := s.steps[st.in[0]].bundle
			if h.OutIdx >= len(b) {
				sp.End()
				return nil, fmt.Errorf("runtime: spoofOut %d references missing output %d of hop %d",
					h.ID, h.OutIdx, h.Inputs[0].ID)
			}
			m = b[h.OutIdx]
		case h.Kind == hop.OpSpoof && isHorizontalSpoof(h):
			// Horizontal fused operators always execute locally: the one
			// shared pass over the main input produces every sibling output.
			var bind Binding
			st.bundle, bind = execRoots(opts.Exec, h.Spoof.(*cplan.Operator), ins[0], ins[1:], stop)
			countBinding(opts.Metrics, h, ins, bind, false)
			m = matrix.NewScalar(0)
		default:
			var err error
			m, err = evalHop(h, ins, env, opts, stop, sp)
			if err != nil {
				sp.End()
				return nil, err
			}
		}
		if observed {
			observeHop(&opts, st, m, time.Since(start))
		}
		sp.End()
		if stop.stopped() {
			// A canceled skeleton returns a partial result: discard it.
			return nil, opts.Ctx.Err()
		}
		st.val, st.owned = m, h.Kind != hop.OpData && !aliasesAny(m, ins)
		// This hop has consumed its inputs; release the ones it killed.
		for _, q := range st.kill {
			s.release(&s.steps[q], opts.Dist)
		}
	}
	for i, q := range s.outs {
		s.results[i] = s.steps[q].val
	}
	return s.results, nil
}

// release drops a dead result and recycles its storage, unless another live
// step holds the same matrix (an alias), which then inherits the ownership.
func (s *Schedule) release(dead *step, dist DistBackend) {
	im, owned := dead.val, dead.owned
	dead.val, dead.owned, dead.bundle = nil, false, nil
	if im == nil {
		return
	}
	for p := range s.steps {
		if st := &s.steps[p]; st.val == im {
			st.owned = st.owned || owned
			return
		}
	}
	if owned {
		if dist != nil {
			// The pool may hand im's storage to the next allocation; a
			// broadcast handle for it would go stale.
			dist.Invalidate(im)
		}
		im.Release()
	}
}

// isHorizontalSpoof reports whether a spoof hop carries a multi-output
// Horizontal-template operator (executed via bundle interception, never
// through evalHop).
func isHorizontalSpoof(h *hop.Hop) bool {
	op, ok := h.Spoof.(*cplan.Operator)
	return ok && op.Plan.Type == cplan.TemplateHorizontal
}

// observeHop records one executed operator: wall time per operator kind,
// the cost model's FLOP estimate and the output-byte estimate next to the actual output
// bytes and measured work, fused-operator invocation counts per template,
// and the predicted-vs-measured entry handed to opts.Observe.
func observeHop(opts *Options, st *step, out *matrix.Matrix, d time.Duration) {
	h, ins, m := st.h, st.ins, opts.Metrics
	actualFlops := ActualFlops(h, ins, out)
	m.Inc("exec.ops")
	m.ObserveDuration(st.op, d)
	m.Add("exec.est.flops", int64(h.PredFlops))
	m.Add("exec.est.bytes", h.OutputSizeBytes())
	m.Add("exec.actual.flops", int64(actualFlops))
	if out != nil {
		m.Add("exec.actual.bytes", out.SizeBytes())
	}
	if h.Kind == hop.OpSpoof {
		m.Inc("spoof.invocations")
		m.Inc(st.spoof)
		m.ObserveDuration(st.opSpoof, d)
	}
	if h.ExecType == hop.ExecDist {
		m.Inc("exec.dist.ops")
	}
	if h.PredSec <= 0 || opts.Observe == nil {
		return
	}
	var inBytes, maxIn, outBytes int64
	for _, in := range ins {
		b := in.SizeBytes()
		inBytes += b
		if b > maxIn {
			maxIn = b
		}
	}
	if out != nil {
		outBytes = out.SizeBytes()
	}
	dist := h.ExecType == hop.ExecDist && opts.Dist != nil
	var bcast int64
	if dist {
		// The distributed cost model reads the largest input locally and
		// receives the rest as broadcast side inputs.
		bcast = inBytes - maxIn
	}
	opts.Observe(obs.AuditEntry{
		Op:             st.label,
		Template:       h.SpoofType,
		PredSec:        h.PredSec,
		PredFlops:      h.PredFlops,
		PredBytes:      h.PredBytes,
		ActualSec:      d.Seconds(),
		ActualFlops:    actualFlops,
		ActualBytes:    inBytes + outBytes,
		ActualInBytes:  inBytes,
		ActualOutBytes: outBytes,
		BcastBytes:     bcast,
		Dist:           dist,
	})
}

// storedCells returns the number of stored entries of a matrix — the cells
// a sparse-aware kernel actually touches — without triggering a dense
// non-zero scan.
func storedCells(m *matrix.Matrix) float64 {
	if m == nil {
		return 0
	}
	if m.IsSparse() {
		return float64(len(m.Sparse().Values))
	}
	return float64(m.Rows) * float64(m.Cols)
}

// ActualFlops measures the data-touch work of one executed operator from
// its realized inputs and output. Unlike h.PredFlops (the cost model's
// estimate from size metadata), it reflects the kernel's actual iteration strategy:
// sparse non-zero iteration counts stored entries, dense scans count
// cells. Fused operators dispatch to per-skeleton work measures.
func ActualFlops(h *hop.Hop, ins []*matrix.Matrix, out *matrix.Matrix) float64 {
	if h.Kind == hop.OpSpoof {
		op, ok := h.Spoof.(*cplan.Operator)
		if !ok || len(ins) == 0 {
			return 0
		}
		return workCells(op, ins)
	}
	switch h.Kind {
	case hop.OpBinary, hop.OpUnary, hop.OpCumsum:
		return storedCells(out)
	case hop.OpAggUnary, hop.OpRowIndexMax:
		if len(ins) > 0 {
			return storedCells(ins[0])
		}
	case hop.OpMatMult:
		if len(ins) == 2 {
			return 2 * storedCells(ins[0]) * float64(ins[1].Cols)
		}
	case hop.OpTranspose, hop.OpIndex, hop.OpCBind, hop.OpRBind, hop.OpDiag:
		return storedCells(out)
	}
	return 0
}

// aliasesAny reports whether m is one of the input matrices (an operator
// returned its input unchanged, e.g. ToDense on an already dense matrix).
func aliasesAny(m *matrix.Matrix, ins []*matrix.Matrix) bool {
	for _, in := range ins {
		if in == m {
			return true
		}
	}
	return false
}

func evalHop(h *hop.Hop, ins []*matrix.Matrix, env Env, opts Options, stop StopFn, sp obs.Span) (*matrix.Matrix, error) {
	if h.ExecType == hop.ExecDist && opts.Dist != nil {
		if m, ok := opts.Dist.ExecHop(h, ins, sp); ok {
			return m, nil
		}
	}
	return evalLocal(opts, h, ins, env, stop)
}

func evalLocal(opts Options, h *hop.Hop, ins []*matrix.Matrix, env Env, stop StopFn) (*matrix.Matrix, error) {
	ec := opts.Exec
	switch h.Kind {
	case hop.OpData:
		m, ok := env[h.Name]
		if !ok {
			return nil, fmt.Errorf("runtime: unbound variable %q", h.Name)
		}
		return m, nil
	case hop.OpLiteral:
		return matrix.NewScalar(h.Value), nil
	case hop.OpDataGen:
		switch h.Gen {
		case hop.GenRand:
			return ec.Rand(int(h.Rows), int(h.Cols), h.GenArgs[0], h.GenArgs[1], h.GenArgs[2], int64(h.GenArgs[3])), nil
		case hop.GenFill:
			return ec.Fill(int(h.Rows), int(h.Cols), h.GenArgs[0]), nil
		case hop.GenSeq:
			return ec.Seq(h.GenArgs[0], h.GenArgs[1], h.GenArgs[2]), nil
		}
	case hop.OpBinary:
		return ec.Binary(h.BinOp, ins[0], ins[1]), nil
	case hop.OpUnary:
		return ec.Unary(h.UnOp, ins[0]), nil
	case hop.OpAggUnary:
		m, done := compressedAgg(ec, h.AggOp, h.AggDir, ins[0])
		countBinding(opts.Metrics, h, ins, "", done)
		if done {
			return m, nil
		}
		return ec.Agg(h.AggOp, h.AggDir, ins[0]), nil
	case hop.OpMatMult:
		return ec.MatMult(ins[0], ins[1]), nil
	case hop.OpTranspose:
		return ec.Transpose(ins[0]), nil
	case hop.OpIndex:
		return ec.IndexRange(ins[0], int(h.RL), int(h.RU), int(h.CL), int(h.CU)), nil
	case hop.OpCBind:
		return ec.CBind(ins[0], ins[1]), nil
	case hop.OpRBind:
		return ec.RBind(ins[0], ins[1]), nil
	case hop.OpRowIndexMax:
		return ec.RowIndexMax(ins[0]), nil
	case hop.OpDiag:
		return ec.Diag(ins[0]), nil
	case hop.OpCumsum:
		return ec.Cumsum(ins[0]), nil
	case hop.OpSpoof:
		m, bind, err := ExecSpoof(ec, h, ins, stop)
		countBinding(opts.Metrics, h, ins, bind, bind == BindDict)
		return m, err
	}
	return nil, fmt.Errorf("runtime: unsupported hop kind %v", h.Kind)
}

// countBinding counts one fused invocation under the binding its skeleton
// reports having taken (spoof.bind.view|fill|nnz|dict), and attributes an
// operator whose main input carries a compressed form: did it run over the
// dictionaries (compress.exec.hit) or fall back to the uncompressed data
// (compress.exec.fallback)? Basic aggregates report no binding, only
// overDict.
func countBinding(m *obs.Metrics, h *hop.Hop, ins []*matrix.Matrix, bind Binding, overDict bool) {
	if bind != "" {
		m.Inc(string(bind))
	}
	switch {
	case h.ExecType == hop.ExecDist || len(ins) == 0 || compress.Of(ins[0]) == nil:
	case overDict:
		m.Inc("compress.exec.hit")
	default:
		m.Inc("compress.exec.fallback")
	}
}

// ExecSpoof dispatches a fused operator to its template skeleton and reports
// the binding the skeleton took. Input conventions: Cell/MAgg/Row operators
// receive [main, sides...]; Outer operators receive [X, U, V, sides...]. ec
// is the execution context (the zero value uses the process-wide pools);
// stop, when non-nil, is polled inside the skeleton loops — a canceled
// operator returns a partial (invalid) result, so callers must check
// cancellation before using it.
func ExecSpoof(ec matrix.Ctx, h *hop.Hop, ins []*matrix.Matrix, stop StopFn) (*matrix.Matrix, Binding, error) {
	op, ok := h.Spoof.(*cplan.Operator)
	if !ok {
		return nil, "", fmt.Errorf("runtime: spoof hop %d has no compiled operator", h.ID)
	}
	// Dictionary binding: eligible bodies run once per distinct dictionary
	// tuple when the main input has an attached compressed form.
	if len(ins) > 0 {
		if cm := compress.Of(ins[0]); cm != nil {
			if out, done := execCompressed(ec, op, cm, ins[1:], stop); done {
				return out, BindDict, nil
			}
		}
	}
	switch op.Plan.Type {
	case cplan.TemplateCell, cplan.TemplateMAgg, cplan.TemplateRow:
		outs, bind := execRoots(ec, op, ins[0], ins[1:], stop)
		if op.Plan.Type == cplan.TemplateMAgg {
			return packMAgg(ec, outs), bind, nil
		}
		return outs[0], bind, nil
	case cplan.TemplateOuter:
		if len(ins) < 3 {
			return nil, "", fmt.Errorf("runtime: outer operator needs X, U, V inputs, got %d", len(ins))
		}
		out, bind := execOuter(ec, op, ins[0], ins[1], ins[2], ins[3:], stop)
		return out, bind, nil
	case cplan.TemplateHorizontal:
		return nil, "", fmt.Errorf("runtime: horizontal operator %d is multi-output; execute via ExecuteDAG or ExecHorizontal", h.ID)
	}
	return nil, "", fmt.Errorf("runtime: unknown template %v", op.Plan.Type)
}
