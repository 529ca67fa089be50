package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Flight recorder: an always-on, fixed-size ring of completed serving
// requests. Every request leaves a cheap record (identity, latency split,
// status); requests that were slow or failed additionally retain their full
// trace-span tree (tail sampling), so the one request that mattered is
// still debuggable after the fact without paying span-retention cost on the
// healthy 99%.

// RequestRecord is one completed request in the flight recorder.
type RequestRecord struct {
	// ID is the request ID (client-supplied X-Request-ID or generated).
	ID string `json:"id"`
	// Tenant is the principal the request ran as.
	Tenant string `json:"tenant"`
	// PlanKey fingerprints the compiled plan the request resolved to
	// (tenant + script + input shapes); same-key requests micro-batch.
	PlanKey string `json:"plan_key,omitempty"`
	// Start is the request's arrival time.
	Start time.Time `json:"start"`
	// Batch is the micro-batch size the request rode in; Leader marks the
	// request that executed the batch.
	Batch  int  `json:"batch"`
	Leader bool `json:"leader"`
	// QueueNS, ExecNS, and TotalNS split the request's latency: arrival
	// to start of execution (session-slot wait plus, in a batch, the jobs
	// ahead), script execution, and arrival-to-completion, in nanoseconds.
	QueueNS int64 `json:"queue_ns"`
	ExecNS  int64 `json:"exec_ns"`
	TotalNS int64 `json:"total_ns"`
	// Status is the HTTP status the request was answered with.
	Status int `json:"status"`
	// Error is the error message for non-200 requests.
	Error string `json:"error,omitempty"`
	// CompressedExec and CompressedFallback count the operators of this
	// request that executed directly over compressed column groups versus
	// fell back to dense (deltas of the session's compress.exec.* counters).
	CompressedExec     int64 `json:"compressed_exec,omitempty"`
	CompressedFallback int64 `json:"compressed_fallback,omitempty"`
	// Sampled reports whether the span tree was retained (the request was
	// slower than the recorder's threshold or ended in error).
	Sampled bool `json:"sampled"`
	// Spans is the request's full trace-span tree (request → run →
	// compile/optimize/execute → per-operator), present only when Sampled.
	Spans []TraceEvent `json:"spans,omitempty"`
}

// FlightRecorder keeps the last N completed request records in a ring,
// tail-sampling span trees for slow or failed requests. All methods are
// safe for concurrent use and nil-safe, so a serving path can thread an
// optional recorder without nil checks.
type FlightRecorder struct {
	mu   sync.Mutex
	ring []RequestRecord
	next int // ring index of the next write
	full bool

	slow time.Duration // retain spans at/over this total latency (<=0: always)

	recorded atomic.Int64
	sampled  atomic.Int64
}

// DefaultFlightRecorderSize is the ring capacity when NewFlightRecorder is
// given a non-positive size.
const DefaultFlightRecorderSize = 256

// NewFlightRecorder returns a recorder keeping the last size requests
// (DefaultFlightRecorderSize when size <= 0). Requests whose total latency
// reaches slow, or that ended in error, retain their full span tree;
// slow <= 0 retains every request's spans.
func NewFlightRecorder(size int, slow time.Duration) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightRecorderSize
	}
	return &FlightRecorder{ring: make([]RequestRecord, size), slow: slow}
}

// SlowThreshold returns the tail-sampling latency threshold.
func (f *FlightRecorder) SlowThreshold() time.Duration {
	if f == nil {
		return 0
	}
	return f.slow
}

// Size returns the ring capacity.
func (f *FlightRecorder) Size() int {
	if f == nil {
		return 0
	}
	return len(f.ring)
}

// Record stores one completed request. spans is invoked only when the
// record tail-samples (error status or total latency at/over the
// threshold), so callers can defer building the span tree to the slow
// path; a nil spans records without a tree.
func (f *FlightRecorder) Record(rec RequestRecord, spans func() []TraceEvent) {
	if f == nil {
		return
	}
	rec.Sampled = rec.Error != "" || (rec.Status != 0 && rec.Status != 200) ||
		f.slow <= 0 || time.Duration(rec.TotalNS) >= f.slow
	if rec.Sampled && spans != nil {
		rec.Spans = spans()
	} else {
		rec.Spans = nil
	}
	f.recorded.Add(1)
	if rec.Sampled {
		f.sampled.Add(1)
	}
	f.mu.Lock()
	f.ring[f.next] = rec
	f.next++
	if f.next == len(f.ring) {
		f.next, f.full = 0, true
	}
	f.mu.Unlock()
}

// Records returns the retained request records, newest first, with span
// trees stripped (fetch one record by ID via Get for its spans).
func (f *FlightRecorder) Records() []RequestRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.next
	if f.full {
		n = len(f.ring)
	}
	out := make([]RequestRecord, 0, n)
	for i := 0; i < n; i++ {
		// Walk backwards from the most recent write.
		idx := f.next - 1 - i
		if idx < 0 {
			idx += len(f.ring)
		}
		rec := f.ring[idx]
		rec.Spans = nil
		out = append(out, rec)
	}
	return out
}

// Get returns the retained record with the given request ID, including its
// span tree when the request tail-sampled. The newest record wins if an ID
// repeats.
func (f *FlightRecorder) Get(id string) (RequestRecord, bool) {
	if f == nil {
		return RequestRecord{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.next
	if f.full {
		n = len(f.ring)
	}
	for i := 0; i < n; i++ {
		idx := f.next - 1 - i
		if idx < 0 {
			idx += len(f.ring)
		}
		if f.ring[idx].ID == id {
			return f.ring[idx], true
		}
	}
	return RequestRecord{}, false
}

// Stats reports how many requests were recorded and how many tail-sampled
// a span tree over the recorder's lifetime (not bounded by the ring).
func (f *FlightRecorder) Stats() (recorded, sampled int64) {
	if f == nil {
		return 0, 0
	}
	return f.recorded.Load(), f.sampled.Load()
}

// requestIDKey keys the request ID in a context.
type requestIDKey struct{}

// ContextWithRequestID returns a context carrying the request ID, threaded
// by the serving frontend into Session.RunContext so the run's root span is
// annotated with the originating request.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFromContext returns the request ID carried by the context ("" if
// none).
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}
