package bench

import (
	"fmt"
	"net/http"
	"time"

	"sysml/internal/serve"
)

// Serving-observability gate thresholds.
const (
	// serveObsMaxOverhead: the always-on flight recorder + request tracing
	// may cost at most this fraction of p99 latency over a server with
	// recording disabled.
	serveObsMaxOverhead = 0.05
	// serveObsSlackMS absorbs scheduler jitter on sub-millisecond
	// requests: the gate passes if the absolute p99 delta stays under this
	// floor even when the relative limit trips on noise.
	serveObsSlackMS = 0.5
)

// serveObsRound fires n closed-loop requests at addr and returns their
// end-to-end latencies.
func serveObsRound(o Options, addr, tenant string, n int) []time.Duration {
	req := scoreReq(o, tenant, 7)
	lats := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		status, err := postScore(addr, req)
		if err != nil || status != http.StatusOK {
			panic(fmt.Sprintf("serveobs bench: status %d err %v", status, err))
		}
		lats = append(lats, time.Since(start))
	}
	return lats
}

// ServeObs measures the cost of serving-path observability: identical
// engines behind two servers — flight recorder + request tracing on
// (defaults) vs disabled. A trial fires one round at each server and reads
// the p99 of both; the check reads the median of three trials (medianTrial),
// the trial protocol of every wall-time check. The always-on path must add
// less than max(5% of the disabled p99, 0.5 ms) to p99. That a sampled
// record keeps the span tree down to the operators is a Tier-1 test
// (EXPERIMENTS.md, "serveobs").
func ServeObs(o Options) []Check {
	perRound := 200
	if o.Reps > 3 {
		perRound = 200 * o.Reps / 3
	}
	newServer := func(opts ...serve.ServerOption) *serve.Server {
		srv, err := serve.NewServer("127.0.0.1:0", serve.NewEngine(
			serve.WithMemoryBudget(1<<30),
			serve.WithTenantQuota(serve.TenantQuota{MaxSessions: 4}),
		), opts...)
		if err != nil {
			panic(fmt.Sprintf("serveobs bench: %v", err))
		}
		return srv
	}
	// A single closed-loop client never saturates its tenant, so no request
	// coalesces or queues: the two variants differ in instrumentation only.
	srvOn, srvOff := newServer(), newServer(serve.WithFlightRecorder(-1, 0))
	defer srvOn.Close()
	defer srvOff.Close()

	// Warm both paths: plan caches, block caches, HTTP keep-alives.
	serveObsRound(o, srvOn.Addr(), "obs-on", 10)
	serveObsRound(o, srvOff.Addr(), "obs-off", 10)

	trial := 0
	return []Check{medianTrial(func() Check {
		// The variant that goes first alternates from one trial to the next.
		var on, off float64
		if trial++; trial%2 == 1 {
			on = percentileMS(serveObsRound(o, srvOn.Addr(), "obs-on", perRound), 0.99)
			off = percentileMS(serveObsRound(o, srvOff.Addr(), "obs-off", perRound), 0.99)
		} else {
			off = percentileMS(serveObsRound(o, srvOff.Addr(), "obs-off", perRound), 0.99)
			on = percentileMS(serveObsRound(o, srvOn.Addr(), "obs-on", perRound), 0.99)
		}
		return Check{Name: "flight-recorder p99 overhead", Measured: on - off, Baseline: off,
			Limit: max(serveObsMaxOverhead*off, serveObsSlackMS), Cmp: "<", Unit: "ms",
			Detail: fmt.Sprintf("p99 of %d requests: off %.3f → on %.3f ms (%+.1f%%)", perRound, off, on, 100*(on-off)/off)}
	})}
}
