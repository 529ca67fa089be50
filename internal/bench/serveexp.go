package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sysml/internal/serve"
)

// Serving gate thresholds.
const (
	// serveTenants is the tenant count of the latency phase (the issue's
	// N=8 gate) and serveClients the closed-loop clients per tenant.
	serveTenants = 8
	serveClients = 2

	// serveMaxP99MS: p99 end-to-end latency (HTTP in to HTTP out) of the
	// closed-loop multi-tenant phase. Generous: the phase runs 16
	// concurrent clients regardless of core count.
	serveMaxP99MS = 250.0

	// serveMinCompleted: at low contention (aggregate open-loop load
	// offered at ~25% of measured single-tenant capacity), the fraction
	// of offered requests that must complete OK — throughput within 5% of
	// the offered single-tenant-rate × N.
	serveMinCompleted = 0.95
)

// serveHTTP is shared across phases: enough idle conns for the widest
// concurrent phase.
var serveHTTP = &http.Client{
	Transport: &http.Transport{MaxIdleConnsPerHost: 64},
	Timeout:   30 * time.Second,
}

// postScore submits one /v1/run and returns its status.
func postScore(addr string, req *serve.RunRequest) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	resp, err := serveHTTP.Post("http://"+addr+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) // a drained body keeps the connection alive
	return resp.StatusCode, nil
}

// scoreReq is the scoring request every phase issues: a small dense
// matmult + aggregate, shapes fixed per tenant so requests resolve to one
// compiled plan per tenant.
func scoreReq(o Options, tenant string, seed int64) *serve.RunRequest {
	return &serve.RunRequest{
		Tenant: tenant,
		Script: "Y = X %*% W\ns = sum(Y)",
		Inputs: map[string]serve.InputSpec{
			"X": {Rows: o.rows(128), Cols: 64, Rand: &serve.RandSpec{Sparsity: 1, Lo: -1, Hi: 1, Seed: seed}},
			"W": {Rows: 64, Cols: 8, Rand: &serve.RandSpec{Sparsity: 1, Lo: -1, Hi: 1, Seed: seed + 1}},
		},
		Outputs: []string{"s"},
	}
}

func percentileMS(durs []time.Duration, p float64) float64 {
	if len(durs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return msec(sorted[int(p*float64(len(sorted)-1))])
}

// Serve measures the multi-tenant scoring frontend:
//
//  1. Latency: N=8 tenants × 2 closed-loop clients against one engine —
//     p99 must stay under 250 ms and the engine must shed nothing (the
//     nominal-load shed-rate-0 gate).
//  2. Throughput: measure single-tenant capacity, then offer ~25% of it
//     as aggregate open-loop load spread over 8 tenants — ≥95% of offered
//     requests must complete (low-contention scaling gate).
//
// Backpressure and micro-batching are Tier-1 tests (EXPERIMENTS.md, "serve").
func Serve(o Options) []Check {
	reqsPerClient := 25
	if o.Reps > 3 {
		reqsPerClient = 25 * o.Reps / 3
	}

	// --- Phase 1: closed-loop latency at N=8 tenants, nominal load. ---
	engA := serve.NewEngine(
		serve.WithMemoryBudget(1<<30),
		serve.WithTenantQuota(serve.TenantQuota{MaxSessions: serveClients + 1}),
		serve.WithSharedPlanCache(0, 8),
	)
	srvA, err := serve.NewServer("127.0.0.1:0", engA)
	if err != nil {
		panic(fmt.Sprintf("serve bench: %v", err))
	}
	var latMu sync.Mutex
	var lats []time.Duration
	var wg sync.WaitGroup
	for ti := 0; ti < serveTenants; ti++ {
		req := scoreReq(o, fmt.Sprintf("tenant-%d", ti), int64(ti*10))
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func(req *serve.RunRequest) {
				defer wg.Done()
				for r := 0; r < reqsPerClient; r++ {
					start := time.Now()
					status, err := postScore(srvA.Addr(), req)
					d := time.Since(start)
					if err != nil || status != http.StatusOK {
						panic(fmt.Sprintf("serve bench latency phase: status %d err %v", status, err))
					}
					latMu.Lock()
					lats = append(lats, d)
					latMu.Unlock()
				}
			}(req)
		}
	}
	wg.Wait()
	shedNominal := engA.Shed()
	srvA.Close()
	p50, p99 := percentileMS(lats, 0.50), percentileMS(lats, 0.99)

	// --- Phase 2: open-loop throughput at low contention. ---
	// Four slots per tenant against one request in flight at a time: no
	// tenant saturates, so nothing coalesces and the gate measures the
	// plain request path.
	engB := serve.NewEngine(
		serve.WithMemoryBudget(1<<30),
		serve.WithTenantQuota(serve.TenantQuota{MaxSessions: 4}),
	)
	srvB, err := serve.NewServer("127.0.0.1:0", engB)
	if err != nil {
		panic(fmt.Sprintf("serve bench: %v", err))
	}
	defer srvB.Close()
	capReq := scoreReq(o, "cap", 99)
	for i := 0; i < 5; i++ { // warm plan + block caches
		postScore(srvB.Addr(), capReq)
	}
	capN := 50
	capStart := time.Now()
	for i := 0; i < capN; i++ {
		if status, err := postScore(srvB.Addr(), capReq); err != nil || status != http.StatusOK {
			panic(fmt.Sprintf("serve bench capacity phase: status %d err %v", status, err))
		}
	}
	capacityRPS := float64(capN) / time.Since(capStart).Seconds()

	// Offer ~25% of capacity, split evenly across N open-loop tenants.
	offeredRPS := capacityRPS / 4
	interval := time.Duration(float64(time.Second) * float64(serveTenants) / offeredRPS)
	perTenant := max(capN/serveTenants, 4)
	var completed atomic.Int64
	openStart := time.Now()
	for ti := 0; ti < serveTenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			req := scoreReq(o, fmt.Sprintf("open-%d", ti), int64(1000+ti))
			var inner sync.WaitGroup
			for r := 0; r < perTenant; r++ {
				inner.Add(1)
				go func() { // open loop: fire on schedule, don't wait
					defer inner.Done()
					if status, err := postScore(srvB.Addr(), req); err == nil && status == http.StatusOK {
						completed.Add(1)
					}
				}()
				time.Sleep(interval)
			}
			inner.Wait()
		}(ti)
	}
	wg.Wait()
	offered := serveTenants * perTenant
	completedRPS := float64(completed.Load()) / time.Since(openStart).Seconds()

	return []Check{
		{Name: "multi-tenant p99", Measured: p99, Limit: serveMaxP99MS, Cmp: "<", Unit: "ms",
			Detail: fmt.Sprintf("%d tenants × %d clients, %d requests, p50 %.1f ms", serveTenants, serveClients, len(lats), p50)},
		{Name: "shed at nominal load", Measured: float64(shedNominal), Cmp: "==", Unit: "requests",
			Detail: fmt.Sprintf("of %d", len(lats))},
		{Name: "open-loop completion", Measured: 100 * float64(completed.Load()) / float64(offered),
			Limit: 100 * serveMinCompleted, Cmp: ">=", Unit: "%",
			Detail: fmt.Sprintf("%.0f of %.0f rps offered (capacity %.0f rps)", completedRPS, offeredRPS, capacityRPS)},
	}
}
