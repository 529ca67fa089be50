package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sysml/internal/dml"
	"sysml/internal/matrix"
	"sysml/internal/obs"
	"sysml/internal/par"
)

// RunRequest is the /v1/run payload: a script to execute for a tenant
// against freshly bound inputs, returning the named outputs.
type RunRequest struct {
	// Tenant names the principal; empty means "default". Tenants are
	// created on first use under the engine's default quota.
	Tenant string `json:"tenant,omitempty"`
	// Script is the DML-subset program to run.
	Script string `json:"script"`
	// Inputs binds matrices by name before the run.
	Inputs map[string]InputSpec `json:"inputs,omitempty"`
	// Outputs lists the variables to return. Scalars come back as 1x1.
	Outputs []string `json:"outputs,omitempty"`
}

// InputSpec describes one input binding: either inline row-major data or
// a deterministic random generator (benchmark traffic without payloads).
type InputSpec struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data,omitempty"`
	Rand *RandSpec `json:"rand,omitempty"`
}

// RandSpec generates the input server-side: sparsity fraction, value
// range, and seed (deterministic across requests).
type RandSpec struct {
	Sparsity float64 `json:"sparsity"`
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	Seed     int64   `json:"seed"`
}

// OutputMatrix is one returned variable in dense row-major form.
type OutputMatrix struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

// RunResponse is the /v1/run result.
type RunResponse struct {
	Outputs map[string]OutputMatrix `json:"outputs,omitempty"`
	// RequestID echoes the request's X-Request-ID (generated when the
	// client sent none); /debug/requests/{id} retrieves its flight record.
	RequestID string `json:"request_id,omitempty"`
	// Batch is the size of the micro-batch this request rode in (1 = ran
	// alone); Leader marks the request that executed the batch.
	Batch  int  `json:"batch"`
	Leader bool `json:"leader"`
	// QueueNS is the time from arrival to the start of execution (waiting
	// for a tenant session slot and, in a batch, for the jobs ahead) and
	// ExecNS the script execution time, nanoseconds.
	QueueNS int64 `json:"queue_ns"`
	ExecNS  int64 `json:"exec_ns"`
}

// errorBody is the JSON error envelope for non-200 responses.
type errorBody struct {
	Error string `json:"error"`
}

// Server serves an Engine over HTTP. Endpoints:
//
//	POST /v1/run              submit a script (RunRequest -> RunResponse);
//	                          sheds with 429 + Retry-After under memory
//	                          pressure or when the tenant is at its quota
//	GET  /v1/tenants          per-tenant serving stats (requests, shed,
//	                          batched, plan-cache hits/misses, live bytes,
//	                          latency quantiles, SLO burn)
//	GET  /metrics             engine-wide serving snapshot; JSON by
//	                          default, Prometheus text exposition when the
//	                          Accept header asks for text/plain
//	GET  /healthz             liveness probe (503 while draining)
//	GET  /debug/requests      flight-recorder ring, newest first
//	GET  /debug/requests/{id} one request's record with its span tree
//	GET  /debug/pprof/...     runtime profiles (only under WithPprof)
//
// Every /v1/run response carries an X-Request-ID header (echoing the
// client's or generated), keying the request's flight record.
type Server struct {
	eng       *Engine
	ln        net.Listener
	srv       *http.Server
	batch     *batcher
	queueWait time.Duration
	rec       *obs.FlightRecorder // nil = recording disabled
	pprof     bool
	draining  atomic.Bool

	// sinks pools per-request trace sinks: tracing is always on with the
	// recorder, so reusing span buffers keeps the healthy-path allocation
	// cost flat instead of feeding the GC one sink per request.
	sinks sync.Pool
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// DefaultQueueWait is how long /v1/run waits for a tenant session slot
// before shedding with 429.
const DefaultQueueWait = 50 * time.Millisecond

// DefaultDrainTimeout bounds how long Close waits for in-flight requests
// to finish before tearing connections down.
const DefaultDrainTimeout = 5 * time.Second

// DefaultSlowThreshold is the flight recorder's tail-sampling latency
// threshold: requests at/over it (or that failed) retain their span tree.
const DefaultSlowThreshold = 100 * time.Millisecond

// WithQueueWait overrides the session-slot wait before shedding.
func WithQueueWait(d time.Duration) ServerOption {
	return func(s *Server) { s.queueWait = d }
}

// WithFlightRecorder resizes the server's request flight recorder: keep
// the last size requests, tail-sampling span trees for requests slower
// than slow (or failed; slow <= 0 retains every tree). size < 0 disables
// recording and request tracing entirely; size 0 keeps the default ring.
func WithFlightRecorder(size int, slow time.Duration) ServerOption {
	return func(s *Server) {
		if size < 0 {
			s.rec = nil
			return
		}
		s.rec = obs.NewFlightRecorder(size, slow)
	}
}

// WithPprof mounts net/http/pprof profile handlers under /debug/pprof/.
// Off by default: profiles expose internals, so serving them is opt-in.
func WithPprof() ServerOption {
	return func(s *Server) { s.pprof = true }
}

// NewServer binds addr (e.g. "127.0.0.1:0") and starts serving the engine
// on its own goroutine until Close.
func NewServer(addr string, e *Engine, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		eng:       e,
		ln:        ln,
		batch:     newBatcher(),
		queueWait: DefaultQueueWait,
		rec:       obs.NewFlightRecorder(obs.DefaultFlightRecorderSize, DefaultSlowThreshold),
	}
	for _, opt := range opts {
		opt(s)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.eng.Tenants())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := s.eng.Metrics()
		if obs.WantsPrometheus(r.Header.Get("Accept")) {
			w.Header().Set("Content-Type", obs.PromContentType)
			obs.WritePrometheus(w, snap)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n"))
			return
		}
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	mux.HandleFunc("/debug/requests/", s.handleDebugRequest)
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// FlightRecorder returns the server's request recorder (nil when
// recording was disabled via WithFlightRecorder(-1, ...)).
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.rec }

// Close shuts the server down gracefully: mark /healthz draining, stop
// accepting immediately, give in-flight /v1/run requests up to
// DefaultDrainTimeout to finish, then tear down whatever remains.
func (s *Server) Close() error { return s.CloseWithTimeout(DefaultDrainTimeout) }

// CloseWithTimeout is Close with an explicit drain bound; d <= 0 skips
// draining. /healthz turns 503 as soon as the drain starts, so load
// balancers stop routing to an instance that no longer accepts.
func (s *Server) CloseWithTimeout(d time.Duration) error {
	s.draining.Store(true)
	if d <= 0 {
		return s.srv.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// shed writes the 429 backpressure response.
func shed(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusTooManyRequests, errorBody{Error: msg})
}

// reqSeq and reqEpoch generate request IDs for clients that send no
// X-Request-ID: a process-start fingerprint plus a sequence number.
var (
	reqSeq   atomic.Uint64
	reqEpoch = strconv.FormatInt(time.Now().UnixNano(), 36)
)

func newRequestID() string {
	return "r" + reqEpoch + "-" + strconv.FormatUint(reqSeq.Add(1), 10)
}

// handleDebugRequests serves the flight-recorder ring: recorder stats plus
// every retained record, newest first, span trees stripped.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	recorded, sampled := s.rec.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"size":     s.rec.Size(),
		"slow_ns":  int64(s.rec.SlowThreshold()),
		"recorded": recorded,
		"sampled":  sampled,
		"requests": s.rec.Records(),
	})
}

// handleDebugRequest serves one retained record by ID, including its span
// tree when the request tail-sampled.
func (s *Server) handleDebugRequest(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/requests/")
	rec, ok := s.rec.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no record for request " + id})
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// panicError is a panic recovered from one job's execution (operator,
// kernel, rewrite): the job fails with a 500, its flight record keeps the
// stack, and the session it ran on is discarded.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("internal error: panic: %v", e.value) }

// statusFor maps a run error to the HTTP status the job is answered with.
func statusFor(err error) int {
	switch err.(type) {
	case nil:
		return http.StatusOK
	case *panicError:
		return http.StatusInternalServerError
	}
	switch err {
	case ErrTenantBusy, ErrTenantOverBudget:
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	start := time.Now()
	rid := r.Header.Get("X-Request-ID")
	if rid == "" {
		rid = newRequestID()
	}
	w.Header().Set("X-Request-ID", rid)
	var req RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request: " + err.Error()})
		return
	}
	if req.Script == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "script is required"})
		return
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	for name, in := range req.Inputs {
		if in.Rows <= 0 || in.Cols <= 0 {
			writeJSON(w, http.StatusBadRequest,
				errorBody{Error: fmt.Sprintf("input %q: rows/cols must be positive", name)})
			return
		}
		if in.Data != nil && len(in.Data) != in.Rows*in.Cols {
			writeJSON(w, http.StatusBadRequest,
				errorBody{Error: fmt.Sprintf("input %q: %d values for %dx%d", name, len(in.Data), in.Rows, in.Cols)})
			return
		}
	}
	tn := s.eng.Tenant(req.Tenant)
	key := keyFor(req.Tenant, req.Script, req.Inputs)

	// Admission control: live pooled bytes over the engine budget (or the
	// tenant's private quota) mean memory pressure — shed before queueing.
	if s.eng.OverBudget() {
		tn.shed.Add(1)
		s.eng.shed.Add(1)
		s.rec.Record(obs.RequestRecord{
			ID: rid, Tenant: tn.name, PlanKey: key.String(), Start: start,
			TotalNS: time.Since(start).Nanoseconds(),
			Status:  http.StatusTooManyRequests, Error: "engine over memory budget",
		}, nil)
		shed(w, "engine over memory budget")
		return
	}

	job := &batchJob{id: rid, start: start, req: &req, done: make(chan struct{})}
	jobs, sess, err := s.batch.submit(tn, key, job, s.queueWait)
	if jobs == nil {
		// Follower: a leader for the same compiled plan, blocked on the
		// saturated tenant, executes this job on its session.
		<-job.done
	} else {
		s.runBatch(tn, key, jobs, sess, err)
	}
	if job.err != nil {
		switch status := statusFor(job.err); status {
		case http.StatusTooManyRequests:
			shed(w, job.err.Error())
		default:
			writeJSON(w, status, errorBody{Error: job.err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusOK, job.resp)
}

// runBatch executes the jobs back-to-back on the ONE session the leader
// acquired for the whole batch: one tenant quota slot, one warm block-plan
// cache, one warm operator cache. jobs[0] is the leader's own; a non-nil
// err is the failed acquire and sheds every job. Every job — leader and
// follower alike — is counted, latency-observed, and flight-recorded here,
// so per-tenant accounting is exact under batching.
func (s *Server) runBatch(t *Tenant, key planKey, jobs []*batchJob, sess *dml.Session, err error) {
	if err != nil {
		for i, job := range jobs {
			job.err = err
			t.shed.Add(1)
			t.eng.shed.Add(1)
			// Shed jobs are flight-recorded (they always tail-sample as
			// errors) but not latency-observed: quantiles reflect served
			// requests only.
			total := time.Since(job.start)
			s.rec.Record(obs.RequestRecord{
				ID: job.id, Tenant: t.name, PlanKey: key.String(), Start: job.start,
				Batch: len(jobs), Leader: i == 0,
				QueueNS: total.Nanoseconds(), TotalNS: total.Nanoseconds(),
				Status: statusFor(err), Error: err.Error(),
			}, nil)
			if i > 0 {
				close(job.done)
			}
		}
		return
	}
	defer func() { t.Release(sess) }() // sess changes when a job panics
	for i, job := range jobs {
		t.requests.Add(1)
		t.eng.requests.Add(1)
		if i > 0 {
			t.batched.Add(1)
			sess.Reset() // clear the previous job's bindings and results
		}
		queue := time.Since(job.start)

		// Request tracing: with the flight recorder on, collect the job's
		// span tree (request -> run -> compile/optimize/execute ->
		// per-operator) into a per-job sink; the recorder invokes the
		// callback only when the job tail-samples. Recorder off: no sink,
		// every span below is a zero-cost no-op.
		var ts *obs.TraceSink
		var root obs.Span
		var spans func() []obs.TraceEvent
		if s.rec != nil {
			ts, _ = s.sinks.Get().(*obs.TraceSink)
			if ts == nil {
				ts = obs.NewTraceSink()
			}
			sess.Sink = ts
			root = obs.StartSpan(nil, ts, "request")
			root.Annotate(
				obs.KV("request.id", job.id),
				obs.KV("tenant", t.name),
				obs.KV("batch", len(jobs)),
				obs.KV("leader", i == 0),
			)
			spans = ts.Events
		}
		ctx := obs.ContextWithRequestID(context.Background(), job.id)
		chBefore := sess.Obs.Counter("compress.exec.hit")
		cfBefore := sess.Obs.Counter("compress.exec.fallback")
		execStart := time.Now()
		resp, err := runJob(ctx, sess, job.req, root)
		exec := time.Since(execStart)
		root.End()
		sess.Sink = nil
		total := time.Since(job.start)
		t.observe(queue, exec, total)
		if err != nil {
			job.err = err
		} else {
			resp.RequestID = job.id
			resp.Batch = len(jobs)
			resp.Leader = i == 0
			resp.QueueNS = queue.Nanoseconds()
			job.resp = resp
		}
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		pe, panicked := err.(*panicError)
		if panicked {
			errStr += "\n" + string(pe.stack)
		}
		s.rec.Record(obs.RequestRecord{
			ID: job.id, Tenant: t.name, PlanKey: key.String(), Start: job.start,
			Batch: len(jobs), Leader: i == 0,
			QueueNS: queue.Nanoseconds(), ExecNS: exec.Nanoseconds(),
			TotalNS:            total.Nanoseconds(),
			CompressedExec:     sess.Obs.Counter("compress.exec.hit") - chBefore,
			CompressedFallback: sess.Obs.Counter("compress.exec.fallback") - cfBefore,
			Status:             statusFor(err), Error: errStr,
		}, spans)
		if ts != nil {
			// Record invoked spans synchronously (Events copies), so the
			// sink is safe to reuse for the next request.
			ts.Reset()
			s.sinks.Put(ts)
		}
		if panicked {
			// The session's Env and buffers are in an unknown state: drop it
			// (never Reset, never parked idle; what it held of the buffer
			// pool stays counted live) and give the rest of the batch a
			// fresh one under the same slot.
			sess = t.newSession()
		}
		if i > 0 {
			close(job.done)
		}
	}
}

// runJob binds the request's inputs, runs the script under the request
// span, and extracts the requested outputs. Inputs are installed directly
// in the environment (not via Bind) so Reset returns their pooled storage
// to the tenant.
func runJob(ctx context.Context, sess *dml.Session, req *RunRequest, parent obs.Span) (resp *RunResponse, err error) {
	defer func() {
		if v := recover(); v != nil {
			stack := debug.Stack()
			if p, ok := v.(*par.Panic); ok {
				// Raised in a chunk that a pool worker ran: the bug is on
				// that goroutine's stack, this one only shows the join.
				v, stack = p.Value, append(p.Stack, stack...)
			}
			resp, err = nil, &panicError{value: v, stack: stack}
		}
	}()
	ec := matrix.Ctx{Par: sess.Par, Buf: sess.Alloc}
	for name, in := range req.Inputs {
		var m *matrix.Matrix
		switch {
		case in.Data != nil:
			m = matrix.NewDenseData(in.Rows, in.Cols, in.Data)
		case in.Rand != nil:
			m = ec.Rand(in.Rows, in.Cols, in.Rand.Sparsity, in.Rand.Lo, in.Rand.Hi, in.Rand.Seed)
		default:
			m = ec.NewDense(in.Rows, in.Cols)
		}
		sess.Env[name] = m
	}
	execStart := time.Now()
	if err := sess.RunInSpan(ctx, req.Script, parent); err != nil {
		return nil, err
	}
	resp = &RunResponse{ExecNS: time.Since(execStart).Nanoseconds()}
	if len(req.Outputs) > 0 {
		resp.Outputs = make(map[string]OutputMatrix, len(req.Outputs))
		for _, name := range req.Outputs {
			m, err := sess.Get(name)
			if err != nil {
				return nil, err
			}
			d := m.ToDense()
			// Copy out: the backing buffer returns to the pool on Reset.
			data := append([]float64(nil), d.Dense()...)
			if d != m {
				d.Release()
			}
			resp.Outputs[name] = OutputMatrix{Rows: m.Rows, Cols: m.Cols, Data: data}
		}
	}
	return resp, nil
}
