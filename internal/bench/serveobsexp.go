package bench

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"sysml/internal/serve"
)

// serveObsFile is the JSON artifact ServeObs writes; CI gates on "pass".
const serveObsFile = "BENCH_serveobs.json"

// Serving-observability gate thresholds.
const (
	// serveObsMaxOverhead: the always-on flight recorder + request tracing
	// may cost at most this fraction of p99 latency over a server with
	// recording disabled.
	serveObsMaxOverhead = 0.05
	// serveObsSlackMS absorbs scheduler jitter on sub-millisecond
	// requests: the overhead gate passes if the absolute p99 delta stays
	// under this floor even when the relative gate trips on noise.
	serveObsSlackMS = 0.5
)

// ServeObsResult is the serialized outcome of the observability gates.
type ServeObsResult struct {
	Rounds   int `json:"rounds"`
	Requests int `json:"requests_per_variant"`

	P50OnMS  float64 `json:"p50_on_ms"`
	P50OffMS float64 `json:"p50_off_ms"`
	P99OnMS  float64 `json:"p99_on_ms"`  // min across rounds, recorder on
	P99OffMS float64 `json:"p99_off_ms"` // min across rounds, recorder off

	OverheadFrac float64 `json:"overhead_frac"`
	OverheadPass bool    `json:"overhead_pass"` // < 5% or within the slack floor

	Recorded   int64 `json:"recorded"`
	TraceSpans int   `json:"trace_spans"`
	TracePass  bool  `json:"trace_pass"` // a sampled record carries a full span tree

	Pass bool `json:"pass"`
}

// serveObsRound fires n closed-loop requests at addr and returns their
// end-to-end latencies.
func serveObsRound(o Options, addr, tenant string, n int) []time.Duration {
	req := scoreReq(o, tenant, 7)
	lats := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		status, _, err := postScore(addr, req)
		if err != nil || status != http.StatusOK {
			panic(fmt.Sprintf("serveobs bench: status %d err %v", status, err))
		}
		lats = append(lats, time.Since(start))
	}
	return lats
}

// ServeObs measures the cost of serving-path observability and writes
// BENCH_serveobs.json:
//
//  1. Overhead: identical engines behind two servers — flight recorder +
//     request tracing on (defaults) vs disabled — measured in interleaved
//     rounds (min p99 per variant de-noises scheduler interference). The
//     always-on path must cost < 5% p99, with a small absolute floor for
//     sub-millisecond jitter.
//  2. Trace sanity: a recorder sampling every request must retain a span
//     tree that reaches the per-operator execute spans.
func ServeObs(o Options) *Table {
	rounds := 3
	perRound := 200
	if o.Reps > 3 {
		perRound = 200 * o.Reps / 3
	}

	newEngine := func() *serve.Engine {
		return serve.NewEngine(
			serve.WithMemoryBudget(1<<30),
			serve.WithTenantQuota(serve.TenantQuota{MaxSessions: 4}),
		)
	}
	// A single closed-loop client never saturates its tenant, so no request
	// coalesces or queues: the two variants differ in instrumentation only.
	srvOn, err := serve.NewServer("127.0.0.1:0", newEngine())
	if err != nil {
		panic(fmt.Sprintf("serveobs bench: %v", err))
	}
	defer srvOn.Close()
	srvOff, err := serve.NewServer("127.0.0.1:0", newEngine(),
		serve.WithFlightRecorder(-1, 0))
	if err != nil {
		panic(fmt.Sprintf("serveobs bench: %v", err))
	}
	defer srvOff.Close()

	// Warm both paths: plan caches, block caches, HTTP keep-alives.
	serveObsRound(o, srvOn.Addr(), "obs-on", 10)
	serveObsRound(o, srvOff.Addr(), "obs-off", 10)

	minP99On, minP99Off := -1.0, -1.0
	var allOn, allOff []time.Duration
	for r := 0; r < rounds; r++ {
		on := serveObsRound(o, srvOn.Addr(), "obs-on", perRound)
		off := serveObsRound(o, srvOff.Addr(), "obs-off", perRound)
		allOn = append(allOn, on...)
		allOff = append(allOff, off...)
		if p := percentileMS(on, 0.99); minP99On < 0 || p < minP99On {
			minP99On = p
		}
		if p := percentileMS(off, 0.99); minP99Off < 0 || p < minP99Off {
			minP99Off = p
		}
	}
	recorded, _ := srvOn.FlightRecorder().Stats()

	overhead := 0.0
	if minP99Off > 0 {
		overhead = (minP99On - minP99Off) / minP99Off
	}
	overheadPass := overhead < serveObsMaxOverhead ||
		minP99On-minP99Off < serveObsSlackMS

	// --- Trace sanity: sample-everything recorder retains full trees. ---
	srvT, err := serve.NewServer("127.0.0.1:0", newEngine(),
		serve.WithFlightRecorder(16, 0))
	if err != nil {
		panic(fmt.Sprintf("serveobs bench: %v", err))
	}
	serveObsRound(o, srvT.Addr(), "obs-trace", 1)
	traceSpans := 0
	tracePass := false
	if recs := srvT.FlightRecorder().Records(); len(recs) == 1 {
		if rec, ok := srvT.FlightRecorder().Get(recs[0].ID); ok && rec.Sampled {
			traceSpans = len(rec.Spans)
			names := map[string]bool{}
			for _, sp := range rec.Spans {
				names[sp.Name] = true
			}
			// Per-operator spans push the tree past the fixed phases.
			tracePass = names["request"] && names["run"] && names["execute"] &&
				traceSpans > 5
		}
	}
	srvT.Close()

	res := ServeObsResult{
		Rounds:       rounds,
		Requests:     rounds * perRound,
		P50OnMS:      percentileMS(allOn, 0.50),
		P50OffMS:     percentileMS(allOff, 0.50),
		P99OnMS:      minP99On,
		P99OffMS:     minP99Off,
		OverheadFrac: overhead,
		OverheadPass: overheadPass,
		Recorded:     recorded,
		TraceSpans:   traceSpans,
		TracePass:    tracePass,
	}
	res.Pass = res.OverheadPass && res.TracePass
	if data, err := json.MarshalIndent(res, "", "  "); err == nil {
		if err := os.WriteFile(serveObsFile, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(o.Out, "serveobs: cannot write %s: %v\n", serveObsFile, err)
		}
	}

	t := &Table{
		Title:   "Serving observability gates: recorder overhead, trace retention",
		Columns: []string{"gate", "measured", "limit", "pass"},
	}
	t.Add("p99 overhead", fmt.Sprintf("%.1f%% (on %.2f ms, off %.2f ms)",
		100*overhead, minP99On, minP99Off),
		fmt.Sprintf("< %.0f%% or < %.1f ms", 100*serveObsMaxOverhead, serveObsSlackMS),
		fmt.Sprintf("%v", res.OverheadPass))
	t.Add("trace retention", fmt.Sprintf("%d spans, %d recorded", traceSpans, recorded),
		"request/run/execute + operators", fmt.Sprintf("%v", res.TracePass))
	return t
}
